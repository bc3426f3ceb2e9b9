// Package cli is what the binaries say once: the observability flags
// with the recorder, endpoint and record store behind them, and the
// job-spec flags satinrun and "satind submit" share.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/store"
)

// Observe is a binary's -obs-addr/-record-db/-record-run flags and,
// after Start, what they asked for.
type Observe struct {
	prog                         string
	obsAddr, recordDB, recordRun *string

	// Rec is nil when neither -obs-addr nor -record-db was given.
	Rec *record.Recorder
	srv *record.Server
	db  *store.DB
}

// ObserveFlags registers the three flags on fs; the help of the first
// two says what this binary serves and records.
func ObserveFlags(fs *flag.FlagSet, prog, obsAddrHelp, recordDBHelp string) *Observe {
	return &Observe{
		prog:      prog,
		obsAddr:   fs.String("obs-addr", "", obsAddrHelp),
		recordDB:  fs.String("record-db", "", recordDBHelp),
		recordRun: fs.String("record-run", "", "run ID for -record-db rows (default "+prog+"-<unixtime>)"),
	}
}

// Start brings up what the parsed flags ask for — a recorder retaining
// that many events, the HTTP endpoint, the durable store as the
// recorder's sink — and prints where each one is.
func (o *Observe) Start(events int) error {
	if *o.obsAddr == "" && *o.recordDB == "" {
		return nil
	}
	o.Rec = record.New(events, 1024)
	if *o.obsAddr != "" {
		srv, err := record.Serve(*o.obsAddr, obs.Default, o.Rec, time.Second)
		if err != nil {
			return fmt.Errorf("obs endpoint: %v", err)
		}
		o.srv = srv
		fmt.Printf("observability endpoint on http://%s (/metrics /events /samples /debug/pprof)\n", srv.Addr())
	}
	if *o.recordDB != "" {
		run := *o.recordRun
		if run == "" {
			run = fmt.Sprintf("%s-%d", o.prog, time.Now().Unix())
		}
		db, err := store.Open(*o.recordDB, run, obs.Default)
		if err != nil {
			return fmt.Errorf("record store: %v", err)
		}
		o.db = db
		o.Rec.SetSink(db)
		fmt.Printf("recording to %s (run %q)\n", *o.recordDB, run)
	}
	return nil
}

// Flush is the drain path, for a process about to os.Exit: a terminal
// snapshot (a run shorter than one sample period would otherwise leave
// an empty sample timeline), then both retained timelines to stderr —
// /events and /samples die with the listener, and the event log alone
// cannot reconstruct the metric trajectory — then the store's queue to
// disk. It returns the store's close error.
func (o *Observe) Flush() error {
	if o.Rec != nil {
		o.Rec.Sample(obs.Default)
		_ = o.Rec.WriteEventsJSONL(os.Stderr)
		_ = o.Rec.WriteSamplesJSONL(os.Stderr)
	}
	if o.db != nil {
		return o.db.Close() // idempotent
	}
	return nil
}

// Close stops the endpoint and closes the store when main returns.
func (o *Observe) Close() {
	if o.srv != nil {
		o.srv.Close()
	}
	if o.db != nil {
		o.db.Close()
	}
}
