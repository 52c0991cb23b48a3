module bulletprime/benchmark

go 1.24

require bulletprime v0.0.0

replace bulletprime => ../
