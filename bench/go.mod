module webevolve/bench

go 1.24

require webevolve v0.0.0

replace webevolve => ../
