package apps

import (
	"os"
	"testing"

	"repro"
	"repro/internal/protocol"
)

func TestFMMDebug(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic; run with -v")
	}
	defer protocol.SetDebugBatchFlagReads(false)
	protocol.SetDebugBatchFlagReads(true)
	debugFMM = true
	defer func() { debugFMM = false }()
	tr := &shasta.WriterTracer{W: os.Stdout, Blocks: map[int]bool{50: true}}
	res, err := ExecuteObserved(NewFMM(1), shasta.Config{Procs: 8, Clustering: 4}, false, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checksum %v", res.Checksum)
}
