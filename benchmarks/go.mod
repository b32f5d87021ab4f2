module copernicus/benchmarks

go 1.22

require copernicus v0.0.0

replace copernicus => ../
