// Package attack is the poolpair golden fixture: each function exercises
// one acquisition/release shape, with // want markers on the lines the
// analyzer must flag and none on the shapes it must accept.
package attack

import (
	"dnnlock/internal/dataset"
	"dnnlock/internal/nn"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

type cache struct {
	buf *tensor.Matrix
}

// --- violations -----------------------------------------------------------

func leakNeverReleased() int {
	m := tensor.GetMatrix(2, 2) // want "result of tensor.GetMatrix is never released"
	return m.Rows
}

func leakVec() int {
	v := tensor.GetVec(4) // want "result of tensor.GetVec is never released"
	return len(v)
}

func leakVarDecl() int {
	var m = tensor.GetMatrixZero(2, 2) // want "result of tensor.GetMatrixZero is never released"
	return m.Cols
}

func leakQueryBatch(o *oracle.Oracle, x *tensor.Matrix) int {
	y, _ := o.QueryBatch(x) // want "result of oracle.QueryBatch is never released"
	return y.Rows
}

func leakQueryBatchOnErrorReturn(o *oracle.Oracle, x *tensor.Matrix) (int, error) {
	y, err := o.QueryBatch(x)
	if err != nil {
		return 0, err // want "oracle.QueryBatch acquired at line .* may leak on this return path"
	}
	r := y.Rows
	tensor.PutMatrix(y)
	return r, nil
}

func blankQueryBatch(o *oracle.Oracle, x *tensor.Matrix) error {
	_, err := o.QueryBatch(x) // want "result of oracle.QueryBatch is assigned to _"
	return err
}

func storedQueryBatchWithoutTransfer(c *cache, o *oracle.Oracle, x *tensor.Matrix) {
	var err error
	c.buf, err = o.QueryBatch(x) // want "result of oracle.QueryBatch is stored outside the function without //lint:transfer"
	_ = err
}

func leakUniformInputs() int {
	x := dataset.UniformInputs(8, 2, 1.0) // want "result of dataset.UniformInputs is never released"
	return x.Rows
}

func leakOnEarlyReturn(cond bool) int {
	m := tensor.GetMatrix(2, 2)
	if cond {
		return -1 // want "tensor.GetMatrix acquired at line .* may leak on this return path"
	}
	tensor.PutMatrix(m)
	return m.Rows
}

func discarded() {
	tensor.GetMatrix(1, 1) // want "result of tensor.GetMatrix is discarded"
}

func blankAssigned() {
	_ = tensor.GetMatrix(1, 1) // want "result of tensor.GetMatrix is assigned to _"
}

func storedAtBirthWithoutTransfer(c *cache) {
	c.buf = tensor.GetMatrix(1, 1) // want "result of tensor.GetMatrix is stored outside the function without //lint:transfer"
}

func storedLaterWithoutTransfer(c *cache) {
	m := tensor.GetMatrix(1, 1)
	m.Data[0] = 1
	c.buf = m // want "m obtained from tensor.GetMatrix is stored outside the function without //lint:transfer"
}

func leakOnFallThrough(cond bool) {
	m := tensor.GetMatrix(2, 2) // want "not released on the fall-through path"
	if cond {
		tensor.PutMatrix(m)
	}
}

// --- suppressed hits ------------------------------------------------------

func suppressedLeak() int {
	m := tensor.GetMatrix(2, 2) //lint:ignore poolpair fixture: leak is intentional here
	return m.Rows
}

func suppressedLeakLineAbove() int {
	//lint:ignore poolpair fixture: suppression on the preceding line
	m := tensor.GetMatrix(2, 2)
	return m.Rows
}

// --- clean shapes ---------------------------------------------------------

func releasedInline() int {
	m := tensor.GetMatrix(2, 2)
	r := m.Rows
	tensor.PutMatrix(m)
	return r
}

func releasedDeferred(cond bool) int {
	m := tensor.GetMatrix(2, 2)
	defer tensor.PutMatrix(m)
	if cond {
		return -1
	}
	return m.Rows
}

func releasedDeferredClosure() int {
	m := tensor.GetMatrix(2, 2)
	defer func() { tensor.PutMatrix(m) }()
	return m.Rows
}

func releasedViaAlias() int {
	m := tensor.GetMatrix(2, 2)
	w := m
	tensor.PutMatrix(w)
	return 0
}

func releasedVec() int {
	v := tensor.GetVec(4)
	defer tensor.PutVec(v)
	return len(v)
}

func releasedOnEachBranch(cond bool) int {
	m := tensor.GetMatrix(2, 2)
	if cond {
		tensor.PutMatrix(m)
		return -1
	}
	tensor.PutMatrix(m)
	return 0
}

func returnedToCaller() *tensor.Matrix {
	m := tensor.GetMatrix(2, 2)
	return m
}

func transferAnnotatedStore(c *cache) {
	c.buf = tensor.GetMatrix(1, 1) //lint:transfer released by cache.drop
}

func transferAnnotatedLater(c *cache) {
	m := tensor.GetMatrix(1, 1)
	m.Data[0] = 1
	c.buf = m //lint:transfer released by cache.drop
}

func (c *cache) drop() {
	tensor.PutMatrix(c.buf)
	c.buf = nil
}

func queryReleased(o *oracle.Oracle, x *tensor.Matrix) int {
	y, _ := o.QueryBatch(x)
	defer tensor.PutMatrix(y)
	return y.Rows
}

// queryErrPathBalanced is the repo's hardened error-path idiom: the nil-safe
// release on the error branch keeps every exit visibly balanced.
func queryErrPathBalanced(o *oracle.Oracle, x *tensor.Matrix) (int, error) {
	y, err := o.QueryBatch(x)
	if err != nil {
		tensor.PutMatrix(y)
		return 0, err
	}
	r := y.Rows
	tensor.PutMatrix(y)
	return r, nil
}

// queryErrPathEscapes returns the buffer to the caller on success and
// releases it on failure.
func queryErrPathEscapes(o *oracle.Oracle, x *tensor.Matrix) (*tensor.Matrix, error) {
	y, err := o.QueryBatch(x)
	if err != nil {
		tensor.PutMatrix(y)
		return nil, err
	}
	return y, nil
}

// queryRetryLoop mirrors core.queryBatchRetry: acquisition inside a loop,
// escape on success, release before each error continuation.
func queryRetryLoop(o *oracle.Oracle, x *tensor.Matrix, retries int) (*tensor.Matrix, error) {
	var err error
	for t := 0; t <= retries; t++ {
		var y *tensor.Matrix
		y, err = o.QueryBatch(x)
		if err == nil {
			return y, nil
		}
		tensor.PutMatrix(y)
	}
	return nil, err
}

// --- Jacobians: the pooled matrix is the second result --------------------

func leakJacobian(net *nn.Network, x []float64) int {
	_, j := net.PreActJacobian(x, 0) // want "result of nn.PreActJacobian is never released"
	return j.Rows
}

func leakJacobianVar(net *nn.Network, x []float64) int {
	var u, j = net.OutputJacobian(x) // want "result of nn.OutputJacobian is never released"
	return len(u) + j.Rows
}

func leakJacobianOnEarlyReturn(net *nn.Network, x []float64, cond bool) int {
	_, j := net.ReluInJacobian(x, 0)
	if cond {
		return -1 // want "nn.ReluInJacobian acquired at line .* may leak on this return path"
	}
	tensor.PutMatrix(j)
	return 0
}

func blankJacobian(net *nn.Network, x []float64) int {
	u, _ := net.ReluInJacobian(x, 0) // want "result of nn.ReluInJacobian is assigned to _"
	return len(u)
}

func discardedJacobian(net *nn.Network, x []float64) {
	net.OutputJacobian(x) // want "result of nn.OutputJacobian is discarded"
}

func jacobianReleased(net *nn.Network, x []float64) int {
	u, j := net.PreActJacobian(x, 0)
	r := len(u) + j.Rows
	tensor.PutMatrix(j)
	return r
}

// jacobianReleasedDeferred mirrors core.voteDirection: the Jacobian lands in
// an alias and a deferred release covers every return.
func jacobianReleasedDeferred(net *nn.Network, x []float64, cond bool) int {
	var aHat *tensor.Matrix
	if cond {
		_, jac := net.ReluInJacobian(x, 0)
		aHat = jac
	} else {
		aHat = tensor.GetMatrix(2, 2)
	}
	defer tensor.PutMatrix(aHat)
	if aHat.Rows == 0 {
		return -1
	}
	return aHat.Cols
}
