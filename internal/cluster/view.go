package cluster

// View adapts a member table to the server's ClusterInfo window: the
// read-only slice of federation state a process reports in /healthz
// and /metrics. It carries the process's own name (SelfURL: a shard's
// base URL, or the gateway's role name) and the advertised gateway,
// neither of which the table knows.
type View struct {
	SelfURL    string
	GatewayURL string
	Table      *Table
}

func (v View) Self() string        { return v.SelfURL }
func (v View) Gateway() string     { return v.GatewayURL }
func (v View) RingVersion() uint64 { return v.Table.Version() }
func (v View) PeersUp() int        { return v.Table.PeersUp() }
func (v View) PeersTotal() int     { return v.Table.PeersTotal() }
