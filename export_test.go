package fidr

// AsyncForTest is the node's async front-end. TestDoctorStall parks a
// Maintenance closure on it: what a wedged group owner is, with no fault
// injection in the node.
func (n *Node) AsyncForTest() *Async { return n.async }
