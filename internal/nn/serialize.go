package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// WeightsVector returns a flat copy of all model parameters in layer order.
// This is the representation exchanged by the federated-averaging protocol:
// two models built from the same architecture spec have positionally
// aligned vectors.
func (m *Model) WeightsVector() []float64 {
	return m.appendWeights(make([]float64, 0, m.NumParams()))
}

// appendWeights appends the flat parameter vector to out.
func (m *Model) appendWeights(out []float64) []float64 {
	for _, p := range m.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetWeightsVector overwrites all model parameters from a flat vector
// produced by WeightsVector on an identically shaped model.
func (m *Model) SetWeightsVector(w []float64) error {
	if len(w) != m.NumParams() {
		return fmt.Errorf("%w: weight vector length %d, model has %d parameters",
			ErrShape, len(w), m.NumParams())
	}
	off := 0
	for _, p := range m.Params() {
		n := len(p.Value.Data)
		copy(p.Value.Data, w[off:off+n])
		off += n
	}
	return nil
}

// weightsFile is the gob schema for persisted weights.
type weightsFile struct {
	LayerNames []string
	ParamNames []string
	Shapes     [][2]int
	Data       [][]float64
}

// SaveWeights writes the model parameters (with shape metadata for
// validation on load) to w using encoding/gob.
func (m *Model) SaveWeights(w io.Writer) error {
	var f weightsFile
	for _, l := range m.layers {
		for _, p := range l.Params() {
			f.LayerNames = append(f.LayerNames, l.Name())
			f.ParamNames = append(f.ParamNames, p.Name)
			f.Shapes = append(f.Shapes, [2]int{p.Value.Rows, p.Value.Cols})
			data := make([]float64, len(p.Value.Data))
			copy(data, p.Value.Data)
			f.Data = append(f.Data, data)
		}
	}
	return gob.NewEncoder(w).Encode(f)
}

// LoadWeights restores parameters previously written by SaveWeights into a
// model of identical architecture.
func (m *Model) LoadWeights(r io.Reader) error {
	var f weightsFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("nn: decode weights: %w", err)
	}
	params := m.Params()
	if len(f.Data) != len(params) {
		return fmt.Errorf("%w: file has %d parameters, model has %d",
			ErrShape, len(f.Data), len(params))
	}
	i := 0
	for _, l := range m.layers {
		for _, p := range l.Params() {
			if f.Shapes[i] != [2]int{p.Value.Rows, p.Value.Cols} {
				return fmt.Errorf("%w: parameter %s/%s shape %v, model expects %dx%d",
					ErrShape, f.LayerNames[i], f.ParamNames[i], f.Shapes[i],
					p.Value.Rows, p.Value.Cols)
			}
			copy(p.Value.Data, f.Data[i])
			i++
		}
	}
	return nil
}

// MarshalWeightsBinary encodes the flat weight vector in a compact
// little-endian binary frame (length-prefixed), the wire format used by
// the TCP federation transport.
func (m *Model) MarshalWeightsBinary() []byte {
	w := m.WeightsVector()
	buf := bytes.NewBuffer(make([]byte, 0, 8+8*len(w)))
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(w)))
	buf.Write(lenBuf[:])
	var vBuf [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(vBuf[:], math.Float64bits(v))
		buf.Write(vBuf[:])
	}
	return buf.Bytes()
}

// UnmarshalWeightsBinary decodes a frame produced by MarshalWeightsBinary
// and installs the weights.
func (m *Model) UnmarshalWeightsBinary(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("%w: weight frame too short (%d bytes)", ErrShape, len(b))
	}
	n := binary.LittleEndian.Uint64(b[:8])
	if uint64(len(b)-8) != 8*n {
		return fmt.Errorf("%w: weight frame declares %d values but carries %d bytes",
			ErrShape, n, len(b)-8)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8+8*i:]))
	}
	return m.SetWeightsVector(w)
}
