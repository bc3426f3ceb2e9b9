package sigdrain

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv makes the test binary act as a small satinrun: TestMain
// runs helper instead of the tests. Its value is how long the drain
// takes.
const helperEnv = "SIGDRAIN_HELPER_DRAIN"

func TestMain(m *testing.M) {
	if d := os.Getenv(helperEnv); d != "" {
		helper(d)
	}
	os.Exit(m.Run())
}

// helper is shaped like satinrun's main: it waits on a channel the
// drain itself closes (job.Cancel closing Done), then releases the
// handler and exits 1 (the log.Fatalf on a cancelled job). The drain
// reports on stdout when it began and when it finished, and exits 7.
func helper(drainFor string) {
	d, err := time.ParseDuration(drainFor)
	if err != nil {
		fmt.Println("helper:", err)
		os.Exit(2)
	}
	done := make(chan struct{})
	release := Install("helper", func() int {
		close(done)
		fmt.Println("draining")
		time.Sleep(d)
		fmt.Println("drained")
		return 7
	})
	fmt.Println("ready")
	<-done
	release()
	os.Exit(1)
}

// startHelper re-executes the test binary as the helper and returns
// once its handler is installed.
func startHelper(t *testing.T, drainFor time.Duration) (*exec.Cmd, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"="+drainFor.String())
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(out)
	expectLine(t, sc, "ready")
	return cmd, sc
}

func expectLine(t *testing.T, sc *bufio.Scanner, want string) {
	t.Helper()
	if !sc.Scan() || sc.Text() != want {
		t.Fatalf("helper printed %q (err %v), want %q", sc.Text(), sc.Err(), want)
	}
}

// exitCode reads the helper's remaining output, then waits for it.
func exitCode(t *testing.T, cmd *exec.Cmd, sc *bufio.Scanner) (code int, rest string) {
	t.Helper()
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), strings.Join(lines, " ")
}

// One signal: the drain ends the wait main was blocked in, and main
// must not exit on its own account while the drain runs. The process
// ends with the drain's code, after the drain finished.
func TestDrainOwnsTheExit(t *testing.T) {
	cmd, sc := startHelper(t, 300*time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	code, rest := exitCode(t, cmd, sc)
	if code != 7 || rest != "draining drained" {
		t.Fatalf("exit %d after %q, want the drain's 7 after \"draining drained\"", code, rest)
	}
}

// A second signal while the drain runs force-quits with 130 at once.
func TestSecondSignalForceQuits(t *testing.T) {
	cmd, sc := startHelper(t, time.Minute)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	expectLine(t, sc, "draining")
	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	code, rest := exitCode(t, cmd, sc)
	if code != 130 || rest != "" {
		t.Fatalf("exit %d after %q, want 130 with the drain unfinished", code, rest)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("force quit took %v", el)
	}
}

// With no signal, release uninstalls the handler and returns, as many
// times as it is called.
func TestReleaseWithoutSignalReturns(t *testing.T) {
	release := Install("test", func() int {
		t.Error("drain ran without a signal")
		return 0
	})
	release()
	release()
}
