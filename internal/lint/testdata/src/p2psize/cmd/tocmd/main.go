// Command tocmd is the testonly fixture's command.
package main

import "p2psize/internal/tofix"

func main() { println(tofix.UsedByCmd()) }
