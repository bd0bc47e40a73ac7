package transport

// This file is kept for benchmark/ until ROADMAP 14, which pre-frames a
// check-in response with Encode. No product file calls a name declared here
// (TestBenchmarkSurface checks it): the product wraps what it sends many
// times with Lend.

// Encode wraps msg for repeated sending.
func Encode(msg interface{}) *Encoded { return &Encoded{msg: msg} }
