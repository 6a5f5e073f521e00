module anton/bench

go 1.22

require anton v0.0.0

replace anton => ../
