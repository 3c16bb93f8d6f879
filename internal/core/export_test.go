package core

// SetReducePerPass sets e's cap on the semantic candidates per (kind,
// failing pass) that enter the reducer, maxReducePerPass unless set. A
// test sets it between NewEngine and Run to run a campaign above a small
// cap.
func SetReducePerPass(e *Engine, n int) { e.reducePerPass = n }
