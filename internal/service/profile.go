package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
	"sort"
	"sync"
	"time"

	"resemble/internal/pprofparse"
	"resemble/internal/telemetry"
)

// Capture manager: a bounded ring of on-disk CPU/heap profile captures
// the service takes of itself — on demand via POST
// /debug/profile/capture, or automatically when the request-latency
// p99 or the process allocation rate crosses a configured threshold.
// Each capture directory holds heap.pprof (post-GC), cpu.pprof (when a
// CPU window was requested and no other CPU profile was running) and a
// capture.json manifest stamping the sequence number, trigger, trigger
// stats and the top flat alloc_space symbols decoded from the heap
// profile by pprofparse — so an operator reading the ring sees *what*
// was hot without leaving the box. Old captures are evicted
// oldest-first once the ring is full.

// ProfileConfig parameterizes the service capture manager. The zero
// value disables it entirely (no routes, no loop, no overhead).
type ProfileConfig struct {
	// Dir enables capturing: capture directories are created under it.
	Dir string
	// Ring bounds how many captures are kept (default 8).
	Ring int
	// CPUDuration is the CPU-profile window per capture (default 2s;
	// requests may override with ?cpu_ms=, 0 skips the CPU profile).
	CPUDuration time.Duration
	// AutoP99Ms triggers an automatic capture when the request-latency
	// p99 exceeds this many milliseconds (0 disables the trigger).
	AutoP99Ms float64
	// AutoAllocBytesPerSec triggers an automatic capture when the
	// process allocation rate exceeds this (0 disables the trigger).
	AutoAllocBytesPerSec float64
	// AutoMinInterval rate-limits automatic captures (default 30s).
	AutoMinInterval time.Duration
	// AutoTick is the monitor poll period (default 1s; tests shrink it).
	AutoTick time.Duration
}

func (pc ProfileConfig) withDefaults() ProfileConfig {
	if pc.Ring <= 0 {
		pc.Ring = 8
	}
	if pc.CPUDuration <= 0 {
		pc.CPUDuration = 2 * time.Second
	}
	if pc.AutoMinInterval <= 0 {
		pc.AutoMinInterval = 30 * time.Second
	}
	if pc.AutoTick <= 0 {
		pc.AutoTick = time.Second
	}
	return pc
}

// enabled reports whether capturing is configured at all.
func (pc ProfileConfig) enabled() bool { return pc.Dir != "" }

// autoEnabled reports whether the background trigger monitor runs.
func (pc ProfileConfig) autoEnabled() bool {
	return pc.enabled() && (pc.AutoP99Ms > 0 || pc.AutoAllocBytesPerSec > 0)
}

// CaptureInfo is one capture's manifest, returned by the capture
// endpoints and written as capture.json inside the capture directory.
type CaptureInfo struct {
	Seq        int      `json:"seq"`
	Reason     string   `json:"reason"`
	Start      string   `json:"start"` // RFC3339Nano
	DurationMS float64  `json:"duration_ms"`
	Dir        string   `json:"dir"`
	Files      []string `json:"files"`
	// Trigger stats at capture time (p99 over the rolling request
	// latency histogram; alloc rate over the last monitor tick).
	P99Ms            float64 `json:"p99_ms,omitempty"`
	AllocBytesPerSec float64 `json:"alloc_bytes_per_sec,omitempty"`
	// TopAllocSpace is the top of the flat alloc_space table decoded
	// from this capture's heap profile.
	TopAllocSpace []pprofparse.Entry `json:"top_alloc_space,omitempty"`
	Error         string             `json:"error,omitempty"`
}

// captureManager owns the capture ring. All methods are safe for
// concurrent use; only one capture runs at a time (a second request
// while one is in flight queues on the mutex).
type captureManager struct {
	cfg      ProfileConfig
	log      *slog.Logger
	captures *telemetry.Counter // total captures taken

	mu       sync.Mutex
	seq      int
	ring     []CaptureInfo
	lastAuto time.Time
}

func newCaptureManager(cfg ProfileConfig, log *slog.Logger, captures *telemetry.Counter) *captureManager {
	return &captureManager{cfg: cfg.withDefaults(), log: log, captures: captures}
}

// List returns the retained capture manifests, oldest first.
func (m *captureManager) List() []CaptureInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CaptureInfo(nil), m.ring...)
}

// Capture takes one capture: post-GC heap profile always, plus a CPU
// window of cpuDur (capped at 10s; negative means the configured
// default, 0 skips CPU). The stats describe the trigger condition and
// are stamped into the manifest.
func (m *captureManager) Capture(reason string, cpuDur time.Duration, p99Ms, allocRate float64) (CaptureInfo, error) {
	m.mu.Lock()
	m.seq++
	info := CaptureInfo{
		Seq:              m.seq,
		Reason:           reason,
		Start:            time.Now().UTC().Format(time.RFC3339Nano),
		P99Ms:            p99Ms,
		AllocBytesPerSec: allocRate,
	}
	info.Dir = filepath.Join(m.cfg.Dir, fmt.Sprintf("capture-%04d", info.Seq))
	m.mu.Unlock()

	began := time.Now()
	if cpuDur < 0 {
		cpuDur = m.cfg.CPUDuration
	}
	if cpuDur > 10*time.Second {
		cpuDur = 10 * time.Second
	}
	if err := os.MkdirAll(info.Dir, 0o755); err != nil {
		return info, err
	}

	// CPU first (the window dominates capture latency), then the heap
	// snapshot so it reflects the end of the window.
	if cpuDur > 0 {
		if err := m.captureCPU(info.Dir, cpuDur); err != nil {
			// Another profiler owns the CPU (bench -profile, StartProfiles):
			// note it and keep the heap capture.
			info.Error = fmt.Sprintf("cpu profile skipped: %v", err)
		} else {
			info.Files = append(info.Files, "cpu.pprof")
		}
	}
	heapPath := filepath.Join(info.Dir, "heap.pprof")
	if err := writeHeapProfile(heapPath); err != nil {
		return info, err
	}
	info.Files = append(info.Files, "heap.pprof")
	sort.Strings(info.Files)

	if p, err := pprofparse.ParseFile(heapPath); err == nil {
		info.TopAllocSpace = p.TopByName("alloc_space", 5)
	} else if info.Error == "" {
		info.Error = fmt.Sprintf("heap profile decode: %v", err)
	}
	info.DurationMS = float64(time.Since(began)) / float64(time.Millisecond)

	if err := writeCaptureManifest(info); err != nil {
		return info, err
	}
	m.commit(info)
	m.captures.Inc()
	m.log.Info("service: profile capture", "seq", info.Seq, "reason", reason, "dir", info.Dir)
	return info, nil
}

// commit appends info to the ring, evicting the oldest capture
// directories past the ring bound.
func (m *captureManager) commit(info CaptureInfo) {
	m.mu.Lock()
	m.ring = append(m.ring, info)
	var evict []string
	for len(m.ring) > m.cfg.Ring {
		evict = append(evict, m.ring[0].Dir)
		m.ring = m.ring[1:]
	}
	m.mu.Unlock()
	for _, dir := range evict {
		if err := os.RemoveAll(dir); err != nil {
			m.log.Warn("service: capture eviction", "err", err)
		}
	}
}

// captureCPU profiles CPU into dir/cpu.pprof for d.
func (m *captureManager) captureCPU(dir string, d time.Duration) error {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	time.Sleep(d)
	rpprof.StopCPUProfile()
	return f.Close()
}

// writeHeapProfile snapshots the post-GC heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = rpprof.WriteHeapProfile(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func writeCaptureManifest(info CaptureInfo) error {
	b, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(info.Dir, "capture.json"), append(b, '\n'), 0o644)
}

// profileLoop is the automatic-trigger monitor: every tick it reads
// the request-latency p99 and the allocation rate since the previous
// tick, and takes a capture (rate-limited by AutoMinInterval) when a
// threshold is crossed.
func (s *Service) profileLoop() {
	defer s.loops.Done()
	cfg := s.profiles.cfg
	tick := time.NewTicker(cfg.AutoTick)
	defer tick.Stop()
	prev := telemetry.ReadAllocCounters()
	prevAt := time.Now()
	for {
		select {
		case <-tick.C:
			now := telemetry.ReadAllocCounters()
			nowAt := time.Now()
			dt := nowAt.Sub(prevAt).Seconds()
			var allocRate float64
			if dt > 0 {
				allocRate = float64(now.Bytes-prev.Bytes) / dt
			}
			prev, prevAt = now, nowAt
			p99 := s.hLatency.Snapshot().Summary.P99

			var reason string
			switch {
			case cfg.AutoP99Ms > 0 && p99 > cfg.AutoP99Ms:
				reason = fmt.Sprintf("auto: request p99 %.1fms > %.1fms", p99, cfg.AutoP99Ms)
			case cfg.AutoAllocBytesPerSec > 0 && allocRate > cfg.AutoAllocBytesPerSec:
				reason = fmt.Sprintf("auto: alloc rate %.0f B/s > %.0f B/s", allocRate, cfg.AutoAllocBytesPerSec)
			default:
				continue
			}
			s.profiles.mu.Lock()
			recent := time.Since(s.profiles.lastAuto) < cfg.AutoMinInterval && !s.profiles.lastAuto.IsZero()
			if !recent {
				s.profiles.lastAuto = time.Now()
			}
			s.profiles.mu.Unlock()
			if recent {
				continue
			}
			if _, err := s.profiles.Capture(reason, -1, p99, allocRate); err != nil {
				s.cfg.Logger.Warn("service: auto capture", "err", err)
			}
		case <-s.stopCh:
			return
		}
	}
}
