module anytime/cmd/anytimebench

go 1.24

require anytime v0.0.0

replace anytime => ../..
