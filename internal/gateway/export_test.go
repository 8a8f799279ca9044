package gateway

import "net"

// Serve starts the gateway on a listener the test supplies.
func (g *Gateway) Serve(lis net.Listener) string { return g.lis.Serve(lis) }
