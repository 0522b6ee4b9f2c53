module gsi/bench

go 1.21

require gsi v0.0.0

replace gsi => ../
