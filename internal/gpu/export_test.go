package gpu

// SetNapAudit turns on the nap audit for the GPU's next Run: every napping
// SM is ticked anyway, and report is called for each cycle in which a nap's
// promise (no issue, same classification, block still resident) failed.
func (g *GPU) SetNapAudit(report func(sm int, cycle uint64, problem string)) {
	g.napAudit = report
}
