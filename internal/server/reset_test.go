package server

import (
	"bytes"
	"testing"
)

// FuzzDecodeResetBlob: arbitrary bytes decode to an error or to a reset
// composite whose encoding decodes back to the same encoding — never a
// panic.
func FuzzDecodeResetBlob(f *testing.F) {
	f.Add((&ResetBlob{}).Encode())
	f.Add((&ResetBlob{Own: &SlotBlob{Slot: 2}}).Encode())
	f.Add((&ResetBlob{
		Ckpt:  9,
		Own:   &SlotBlob{Slot: 0, Closes: 4, Data: []byte("own plan")},
		Insts: []SlotBlob{{Slot: 3, Closes: 4, Data: []byte("hosted")}},
		Reps:  []SlotBlob{{Slot: 1, Closes: 4, Data: []byte("replica")}, {Slot: -1}},
	}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		rb, err := DecodeResetBlob(data)
		if err != nil {
			return
		}
		enc := rb.Encode()
		again, err := DecodeResetBlob(enc)
		if err != nil {
			t.Fatalf("re-encoded reset blob does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("decode → encode is not a fixpoint")
		}
	})
}
