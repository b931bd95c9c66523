module pj2k/bench

go 1.24

require pj2k v0.0.0

replace pj2k => ../
