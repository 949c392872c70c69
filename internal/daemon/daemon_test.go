package daemon

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestPublishAddr(t *testing.T) {
	file := filepath.Join(t.TempDir(), "d.addr")
	cleanup, err := PublishAddr(file, "127.0.0.1:1234")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "127.0.0.1:1234\n" {
		t.Fatalf("address file %q", data)
	}
	// No temp file may linger next to the published one.
	if _, err := os.Stat(file + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	cleanup()
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("address file survived cleanup: %v", err)
	}
}

// TestFlagsPublish: Publish writes the -addr-file the flags name, and
// its cleanup removes it.
func TestFlagsPublish(t *testing.T) {
	file := filepath.Join(t.TempDir(), "shardd.addr")
	f := &Flags{Listen: ":0", AddrFile: file}
	cleanup, err := f.Publish("127.0.0.1:4321")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(file); err != nil || string(data) != "127.0.0.1:4321\n" {
		t.Fatalf("address file %q: %v", data, err)
	}
	cleanup()
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("address file survived cleanup: %v", err)
	}
}

func TestPublishAddrEmpty(t *testing.T) {
	cleanup, err := PublishAddr("", "ignored")
	if err != nil {
		t.Fatal(err)
	}
	cleanup() // must be callable
}

func TestEvery(t *testing.T) {
	var n atomic.Int64
	stop := Every(time.Millisecond, func() { n.Add(1) })
	for i := 0; i < 100 && n.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n.Load() == 0 {
		t.Fatal("ticker never fired")
	}
	stop()
	stop() // idempotent
	// One in-flight call can race the stop; after it drains, the count
	// must hold still.
	time.Sleep(5 * time.Millisecond)
	after := n.Load()
	time.Sleep(10 * time.Millisecond)
	if n.Load() != after {
		t.Fatal("ticker fired after stop")
	}
}

func TestEveryDisabled(t *testing.T) {
	stop := Every(0, func() { t.Error("disabled ticker fired") })
	time.Sleep(2 * time.Millisecond)
	stop()
}

func TestOnShutdownStop(t *testing.T) {
	stop := OnShutdown(func(os.Signal) { t.Error("handler fired without a signal") })
	stop()
	stop() // idempotent
}
