module padres/bench

go 1.22

require padres v0.0.0

replace padres => ../
