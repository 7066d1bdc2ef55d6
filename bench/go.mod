module melissa/bench

go 1.24

require melissa v0.0.0

replace melissa => ../
