package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started
// with CRAWLSIM_ARGS set, so a test can read its exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CRAWLSIM_ARGS"); ok {
		os.Args = append([]string{"crawlsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDaysInsideWarmupRefused: a -days that ends inside the 20-day
// warm-up is a flag error, refused before anything runs with exit
// status 2 and a message naming the flag and the warm-up.
func TestDaysInsideWarmupRefused(t *testing.T) {
	if err := checkDays(20.5); err != nil {
		t.Fatalf("-days 20.5 refused: %v", err)
	}
	for _, args := range []string{"-days 20 -size 200", "-matrix -days 20 -size 200", "-curves -days 5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "CRAWLSIM_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("crawlsim %s: %v, want exit status 2", args, err)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "-days") || !strings.Contains(msg, "20-day warm-up") {
			t.Fatalf("crawlsim %s: message %q names neither -days nor the 20-day warm-up", args, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("crawlsim %s ran before refusing: %q", args, stdout.String())
		}
	}
}
