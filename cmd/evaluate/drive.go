package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
)

// The app-task driver: the per-op rows of the concurrency, bench-json,
// zerocopy, binder, network and fleet experiments are measured here, as
// the paper's Section VI measures them — sim time over a fixed number of
// operations. An experiment boots a device, launches its apps
// through a per-app setup (warm-up included, so timed ops see steady
// state), then times iters of an op on every app at once: one app task
// per app, a goroutine each when there are several, inline when there is
// one. App tasks are the only goroutines the simulation runs, and timeOps
// is the one place in this command that starts them.

// appTask is one launched app and the state its op works on.
type appTask struct {
	p   *anception.Proc
	fd  int
	buf []byte
}

// timed is a driven run's sim elapsed time and operation count.
type timed struct {
	elapsed time.Duration
	ops     int
}

func (t timed) usPerOp() float64      { return float64(t.elapsed) / float64(t.ops) / 1e3 }
func (t timed) opsPerSimSec() float64 { return float64(t.ops) / t.elapsed.Seconds() }

// launchApp installs and launches one app named pkg on d.
func launchApp(d *anception.Device, pkg string) (*anception.Proc, error) {
	app, err := d.InstallApp(android.AppSpec{Package: pkg})
	if err != nil {
		return nil, err
	}
	return d.Launch(app)
}

// launchApps boots a device on opts and launches n apps on it, one after
// another, running setup on each. App i is named fmt.Sprintf(pkg, i) when
// pkg holds a verb, pkg otherwise. The caller closes the device.
func launchApps(opts anception.Options, n int, pkg string, setup func(*appTask) error) (*anception.Device, []appTask, error) {
	d, err := anception.NewDevice(opts)
	if err != nil {
		return nil, nil, err
	}
	tasks := make([]appTask, n)
	for i := range tasks {
		name := pkg
		if strings.Contains(pkg, "%") {
			name = fmt.Sprintf(pkg, i)
		}
		p, err := launchApp(d, name)
		if err == nil {
			tasks[i].p = p
			err = setup(&tasks[i])
		}
		if err != nil {
			d.Close()
			return nil, nil, err
		}
	}
	return d, tasks, nil
}

// timeOps runs iters of op on every task — concurrently when there are
// several, on the shared sim clock of d — and returns the sim time the
// run took. The first op to fail stops every task, and its error is
// returned.
func timeOps(d *anception.Device, tasks []appTask, iters int, op func(*appTask) error) (timed, error) {
	var stop atomic.Bool
	failed := make(chan error, 1)
	task := func(t *appTask) {
		for n := 0; n < iters && !stop.Load(); n++ {
			if err := op(t); err != nil {
				stop.Store(true)
				select {
				case failed <- err:
				default:
				}
				return
			}
		}
	}
	start := d.Clock.Now()
	if len(tasks) == 1 {
		task(&tasks[0])
	} else {
		var wg sync.WaitGroup
		for i := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task(&tasks[i])
			}()
		}
		wg.Wait()
	}
	select {
	case err := <-failed:
		return timed{}, err
	default:
	}
	return timed{elapsed: d.Clock.Now() - start, ops: len(tasks) * iters}, nil
}

// drive is launchApps and timeOps in one, for an experiment that reads
// nothing else off the device.
func drive(opts anception.Options, threads int, pkg string, iters int, setup, op func(*appTask) error) (timed, error) {
	d, tasks, err := launchApps(opts, threads, pkg, setup)
	if err != nil {
		return timed{}, err
	}
	defer d.Close()
	return timeOps(d, tasks, iters, op)
}

// openFile opens name read-write on t's app, creating it, and warms the
// path with one write of buf, which t keeps for its ops.
func openFile(t *appTask, name string, buf []byte) error {
	fd, err := t.p.Open(name, abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return err
	}
	t.fd, t.buf = fd, buf
	return pwriteOp(t)
}

func pwriteOp(t *appTask) error {
	_, err := t.p.Pwrite(t.fd, t.buf, 0)
	return err
}
