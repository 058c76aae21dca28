module respect/benchmark

go 1.24

require respect v0.0.0

replace respect => ../
