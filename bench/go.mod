module ddr/bench

go 1.23

require ddr v0.0.0

replace ddr => ../
