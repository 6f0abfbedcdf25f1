module medvault/bench

go 1.22

require medvault v0.0.0

replace medvault => ../
