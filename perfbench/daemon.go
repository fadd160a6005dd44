package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"serretime/internal/service"
	"serretime/internal/store"
)

// daemon is an in-process serretimed: a service.Server with a disk store
// at the daemon's default fsync=always, behind a loopback listener, plus
// the HTTP client the workload drives it with.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// ts is the timing wrapper around the store, present in traced runs.
	ts *timedStore
}

// startDaemon boots the server the serve and eco workloads share: two
// solve workers, one analysis worker per solve, and a job table bounded
// at eight finished jobs so memory levels off. rec, when non-nil, is
// passed as Config.Recorder; timed wraps the store in a timedStore.
func startDaemon(dir string, rec *recorder, timed bool) (*daemon, error) {
	disk, err := store.Open(store.Options{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	jobs, stats, err := disk.Recover()
	if err != nil {
		disk.Close()
		return nil, err
	}
	d := &daemon{served: make(chan error, 1)}
	var st service.Store = disk
	if timed {
		d.ts = &timedStore{Store: disk}
		st = d.ts
	}
	cfg := service.Config{Workers: 2, SolveWorkers: 1, MaxJobs: 8, Store: st}
	if rec != nil {
		cfg.Recorder = rec
	}
	d.srv = service.New(context.Background(), cfg)
	d.srv.Restore(jobs, stats)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}
	return d, nil
}

// stop shuts the listener, drains the server (which closes the store)
// and waits for the serving goroutine to return.
func (d *daemon) stop(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	d.client.CloseIdleConnections()
	return err
}

// call sends one request and returns the response body; any status other
// than want is an error carrying the body. When out is non-nil the body
// is decoded into it as JSON.
func (d *daemon) call(ctx context.Context, method, path, ctype string, body []byte, want int, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: bad response: %.200s", method, path, data)
		}
	}
	return data, nil
}
