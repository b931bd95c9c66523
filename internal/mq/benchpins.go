package mq

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// NewEncoder returns an initialized encoder.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.Init()
	return e
}

// NewDecoder returns a decoder over one codeword segment (INITDEC).
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{}
	d.Reset(data)
	return d
}
