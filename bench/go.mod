module aryn/bench

go 1.24

require aryn v0.0.0

replace aryn => ../
