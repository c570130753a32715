// Package obs stubs the span surface of the real dnnlock/internal/obs for
// the spanpair golden tests: same import path, same names, no behavior.
package obs

type Attr struct{}

type Tracer struct{}

func New() *Tracer { return &Tracer{} }

func (t *Tracer) Start(name string, attrs ...Attr) *Span { return &Span{} }

type Span struct{}

func (s *Span) Child(name string, attrs ...Attr) *Span { return &Span{} }

func (s *Span) End(attrs ...Attr) {}

func (s *Span) Event(name string, attrs ...Attr) {}
