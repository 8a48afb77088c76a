package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/cluster"
	"blockfanout/internal/fanout"
	"blockfanout/internal/server"
)

// backend is a running service behind a loopback listener, driven by one
// closed-loop caller over a single keep-alive connection.
type backend struct {
	url    string
	client *http.Client
	stop   func() // shuts the service down and waits for it
}

const (
	clusterNodes = 2
	heartbeat    = 500 * time.Millisecond // spchol-serve's -heartbeat-interval default
)

func quietLog(string, ...any) {}

// startServer runs server.New with spchol-serve's default flag values.
func startServer() (*backend, error) {
	s := server.New(server.Config{
		QueueDepth:     64,
		BatchWindow:    2 * time.Millisecond,
		BatchLimit:     64,
		RequestTimeout: 60 * time.Second,
		Exec:           fanout.ModeWorkStealing,
	})
	return listenHTTP(s.Handler(), s.Close)
}

// startCluster runs a gateway with spchol-serve -gateway's default flag
// values and two single-worker nodes, all in this process and connected
// over loopback TCP, and waits until both nodes have joined.
func startCluster() (*backend, error) {
	ctl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gw := cluster.NewGateway(cluster.GatewayConfig{
		Exec:              fanout.ModeWorkStealing,
		Replicas:          1,
		MinNodes:          1,
		HeartbeatInterval: heartbeat,
		HeartbeatMisses:   4,
		RequestTimeout:    60 * time.Second,
		QueueDepth:        64,
		Logf:              quietLog,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gw.Serve(ctx, ctl)
	}()
	for i := 0; i < clusterNodes; i++ {
		n := cluster.NewNode(cluster.NodeConfig{
			ID:      fmt.Sprintf("node%d", i),
			Gateway: ctl.Addr().String(),
			Workers: 1,
			Logf:    quietLog,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Run(ctx)
		}()
	}
	be, err := listenHTTP(gw.Handler(), func() {
		cancel()
		wg.Wait()
	})
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	if err := be.waitNodes(clusterNodes, 10*time.Second); err != nil {
		be.stop()
		return nil, err
	}
	return be, nil
}

// listenHTTP serves h on a loopback port; stop shuts the listener down,
// then runs after.
func listenHTTP(h http.Handler, after func()) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		after()
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	client := &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	be := &backend{url: "http://" + ln.Addr().String(), client: client}
	be.stop = func() {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
		after()
	}
	return be, nil
}

// post sends one request and reads the whole response; the duration is
// the round trip.
func (be *backend) post(path, ctype string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	r, err := be.client.Post(be.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	resp, err := io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, time.Since(t0), err
}

func (be *backend) get(path string, v any) error {
	r, err := be.client.Get(be.url + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// metricsDoc holds the /metrics fields the benchmark reads from the server
// (plan cache, batches) and the gateway (epochs, nodes); admission is
// common to both.
type metricsDoc struct {
	PlanCache struct {
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"plan_cache"`
	Batches    int64 `json:"batches"`
	BatchedRHS int64 `json:"batched_rhs"`
	Admission  struct {
		Tenants map[string]admission.TenantStats `json:"tenants"`
	} `json:"admission"`
	Epochs       uint64 `json:"epochs_started"`
	EpochRetries uint64 `json:"epoch_retries"`
	LocalFactors uint64 `json:"local_factors"`
	Nodes        []struct {
		ID        string `json:"id"`
		Flops     uint64 `json:"flops"`
		BytesSent uint64 `json:"bytes_sent"`
	} `json:"nodes"`
}

func (be *backend) metrics() (metricsDoc, error) {
	var m metricsDoc
	err := be.get("/metrics", &m)
	return m, err
}

// rejected counts requests admission turned away or shed, over all
// tenants.
func (m metricsDoc) rejected() uint64 {
	var n uint64
	for _, t := range m.Admission.Tenants {
		n += t.RejectedRate + t.RejectedQuota + t.RejectedQueue + t.RejectedBrownout + t.RejectedDeadline + t.Shed
	}
	return n
}

// waitNodes polls the gateway's /healthz until n nodes report alive.
func (be *backend) waitNodes(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		var h struct {
			Nodes []struct {
				Alive bool `json:"alive"`
			} `json:"nodes"`
		}
		alive := 0
		if err := be.get("/healthz", &h); err == nil {
			for _, nd := range h.Nodes {
				if nd.Alive {
					alive++
				}
			}
		}
		if alive >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d cluster nodes joined within %v", alive, n, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
