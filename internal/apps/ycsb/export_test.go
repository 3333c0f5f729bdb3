package ycsb

var Value = value
