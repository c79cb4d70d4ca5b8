// Package statz turns a streaming analysis aggregator into a live audit
// surface for a running crawl campaign. A Recorder sits between the
// crawler (as its SweepSink) and an HTTP mux: every completed sweep is
// ingested into the stream, summarized into a Snapshot, marshaled once,
// and kept in a sweep-indexed ring. GET /statz serves the latest
// snapshot; GET /statz?sweep=N replays the exact bytes recorded when the
// N'th sweep completed.
//
// Determinism contract: snapshot bytes are a pure function of the
// ingested sweeps and the campaign clock. Timestamps come from sweep
// completion instants on the campaign clock (never wall time), map
// iteration never reaches the output (the stream emits sorted views),
// and stored bytes are never re-marshaled. Two same-seed campaigns
// therefore serve byte-identical /statz?sweep=N responses at every N.
package statz

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/httpheader"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// Snapshot is the envelope served at /statz: one frozen view of a
// campaign, taken at a sweep boundary on the campaign clock.
type Snapshot struct {
	// Sweep is the 1-based count of sweeps ingested when this snapshot
	// was taken; 0 for the pre-campaign snapshot.
	Sweep int `json:"sweep"`
	// VirtualTime is the campaign-clock instant of the sweep that
	// produced the snapshot.
	VirtualTime time.Time `json:"virtual_time"`
	// Build identifies the binary serving the campaign.
	Build telemetry.Build `json:"build"`
	// Campaign is the crawler's progress view, when a progress source is
	// attached.
	Campaign *crawler.ProgressSnapshot `json:"campaign,omitempty"`
	// Stream is the streaming aggregator's scorecard-bearing summary.
	Stream analysis.StreamSnapshot `json:"stream"`
	// Errors lists ingest failures, e.g. malformed sweeps. Empty in a
	// healthy campaign.
	Errors []string `json:"errors,omitempty"`
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithProgress attaches a campaign progress source — typically
// (*crawler.Crawler).ProgressState — embedded in every snapshot.
func WithProgress(fn func() crawler.ProgressSnapshot) Option {
	return func(r *Recorder) { r.progress = fn }
}

// maxErrors bounds the ingest-error list carried in snapshots.
const maxErrors = 16

// Recorder implements crawler.SweepSink over an analysis.Stream and
// serves the resulting snapshots over HTTP. It is safe for concurrent
// use: ObserveSweep is called from the crawler's scheduling goroutine
// while HTTP handlers read from request goroutines.
type Recorder struct {
	stream   *analysis.Stream
	progress func() crawler.ProgressSnapshot
	ringCap  int // sweeps kept in the snapshot ring, oldest evicted first

	mu     sync.Mutex
	ring   []ringEntry
	latest []byte
	errs   []string
}

type ringEntry struct {
	sweep int
	data  []byte
}

// NewRecorder wraps stream as a sweep sink with a snapshot ring. The
// stream must not be ingested into by anyone else while the recorder
// owns it.
func NewRecorder(stream *analysis.Stream, opts ...Option) *Recorder {
	r := &Recorder{stream: stream, ringCap: 256}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Stream returns the underlying aggregator, e.g. for an end-of-campaign
// parity check against the batch pipeline.
func (r *Recorder) Stream() *analysis.Stream { return r.stream }

// ObserveSweep ingests one completed sweep and freezes a snapshot of the
// resulting state, keyed by the 1-based sweep count.
func (r *Recorder) ObserveSweep(info crawler.SweepInfo, obs []storage.Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.stream.IngestSweep(info.At, obs); err != nil {
		if len(r.errs) < maxErrors {
			r.errs = append(r.errs, fmt.Sprintf("sweep %d: %v", info.Sweep, err))
		}
		return
	}
	data, err := marshalSnapshot(r.snapshotLocked(info.At))
	if err != nil {
		// json.Marshal cannot fail on these types; guard anyway.
		if len(r.errs) < maxErrors {
			r.errs = append(r.errs, fmt.Sprintf("sweep %d: marshal: %v", info.Sweep, err))
		}
		return
	}
	r.latest = data
	r.ring = append(r.ring, ringEntry{sweep: r.stream.Sweeps(), data: data})
	if len(r.ring) > r.ringCap {
		r.ring = r.ring[len(r.ring)-r.ringCap:]
	}
}

// snapshotLocked assembles the envelope; the caller holds r.mu.
func (r *Recorder) snapshotLocked(at time.Time) Snapshot {
	snap := Snapshot{
		Sweep:       r.stream.Sweeps(),
		VirtualTime: at,
		Build:       telemetry.ReadBuild(),
		Stream:      r.stream.Snapshot(),
	}
	if r.progress != nil {
		p := r.progress()
		snap.Campaign = &p
	}
	if len(r.errs) > 0 {
		snap.Errors = append([]string(nil), r.errs...)
	}
	return snap
}

// marshalSnapshot is the single serialization point for snapshot bytes:
// indented JSON with a trailing newline, so stored and served bytes are
// identical and diff-friendly.
func marshalSnapshot(s Snapshot) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// SnapshotJSON returns the latest frozen snapshot bytes, or a freshly
// assembled pre-campaign snapshot when no sweep has completed yet. The
// at instant is only used for that pre-campaign case.
func (r *Recorder) SnapshotJSON(at time.Time) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.latest != nil {
		return r.latest, nil
	}
	return marshalSnapshot(r.snapshotLocked(at))
}

// SweepJSON returns the snapshot frozen when the 1-based n'th sweep
// completed, and whether the ring still holds it.
func (r *Recorder) SweepJSON(n int) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.ring {
		if e.sweep == n {
			return e.data, true
		}
	}
	return nil, false
}

// RingBounds returns the oldest and newest sweep numbers held by the
// ring; (0, 0) when empty.
func (r *Recorder) RingBounds() (oldest, newest int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return 0, 0
	}
	return r.ring[0].sweep, r.ring[len(r.ring)-1].sweep
}

// Handler serves the recorder's snapshots. GET /statz returns the latest
// snapshot as indented JSON (an HTML scorecard with ?format=html or when
// the client prefers text/html); ?sweep=N replays the bytes frozen when
// sweep N completed — 404 when N has not happened yet or was evicted.
// Ring bounds travel in X-Statz-Ring so response bodies stay
// byte-deterministic.
func (r *Recorder) Handler(clock func() time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var data []byte
		if v := req.URL.Query().Get("sweep"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "bad sweep", http.StatusBadRequest)
				return
			}
			d, ok := r.SweepJSON(n)
			if !ok {
				http.Error(w, "sweep not in ring", http.StatusNotFound)
				return
			}
			data = d
		} else {
			at := time.Time{}
			if clock != nil {
				at = clock()
			}
			d, err := r.SnapshotJSON(at)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			data = d
		}
		oldest, newest := r.RingBounds()
		w.Header().Set(httpheader.StatzRing, fmt.Sprintf("%d-%d", oldest, newest))
		format := req.URL.Query().Get("format")
		if format == "" && strings.Contains(req.Header.Get("Accept"), "text/html") {
			format = "html"
		}
		if format == "html" {
			writeStatzHTML(w, data)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// Mux assembles the live audit surface: /statz from the recorder, plus
// /metricsz when a registry is attached and /tracez and /spanz (node
// "crawler") when a span recorder is.
func Mux(rec *Recorder, clock func() time.Time, reg *telemetry.Registry, spans *telemetry.SpanRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /statz", rec.Handler(clock))
	telemetry.MountDebug(mux, reg, spans, "crawler")
	return mux
}

// writeStatzHTML renders the snapshot bytes as a minimal scorecard page.
// It re-reads the frozen JSON rather than live state, so the page always
// agrees with what a JSON client sees.
func writeStatzHTML(w http.ResponseWriter, data []byte) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!doctype html><title>statz</title>" +
		"<style>body{font-family:monospace}table{border-collapse:collapse}" +
		"td,th{border:1px solid #ccc;padding:2px 6px;text-align:left}" +
		".pass{color:green}.fail{color:red}</style>" +
		"<h1>statz</h1>")
	fmt.Fprintf(&b, "<p>sweep %d · virtual time %s</p>",
		snap.Sweep, snap.VirtualTime.UTC().Format(time.RFC3339))
	if snap.Build.GoVersion != "" {
		fmt.Fprintf(&b, "<p>build %s", html.EscapeString(snap.Build.GoVersion))
		if snap.Build.Revision != "" {
			fmt.Fprintf(&b, " @ %s", html.EscapeString(snap.Build.Revision))
		}
		if snap.Build.Dirty {
			b.WriteString(" (dirty)")
		}
		b.WriteString("</p>")
	}
	if c := snap.Campaign; c != nil {
		fmt.Fprintf(&b, "<p>campaign: %d/%d sweeps · %d observations (%d failed, %d shed) · eta %s</p>",
			c.SweepsDone, c.SweepsTotal, c.Observations, c.Failed, c.Shed,
			c.VirtualETA.UTC().Format(time.RFC3339))
	}
	b.WriteString("<h2>scorecard</h2><table><tr><th>claim</th><th>verdict</th><th>detail</th></tr>")
	for _, c := range snap.Stream.Scorecard {
		verdict, class := "PASS", "pass"
		if !c.Pass {
			verdict, class = "FAIL", "fail"
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td class=%q>%s</td><td>%s</td></tr>",
			html.EscapeString(c.Claim), class, verdict, html.EscapeString(c.Detail))
	}
	b.WriteString("</table>")
	b.WriteString("<h2>scopes</h2><table><tr><th>granularity</th><th>category</th>" +
		"<th>noise pairs</th><th>noise edit</th><th>pers pairs</th><th>pers edit</th>" +
		"<th>identical</th><th>reordered</th><th>changed</th></tr>")
	for _, s := range snap.Stream.Scopes {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.2f</td><td>%d</td><td>%.2f</td><td>%d</td><td>%d</td><td>%d</td></tr>",
			html.EscapeString(s.Granularity), html.EscapeString(s.Category),
			s.NoisePairs, s.NoiseEditMean,
			s.PersonalizationPairs, s.PersonalizationEditMean,
			s.IdenticalPairs, s.ReorderedPairs, s.ContentChangedPairs)
	}
	b.WriteString("</table>")
	if len(snap.Stream.Drift) > 0 {
		b.WriteString("<h2>drift</h2><table><tr><th>scope</th><th>sweep</th><th>at</th><th>from</th><th>to</th></tr>")
		for _, d := range snap.Stream.Drift {
			fmt.Fprintf(&b, "<tr><td>%s/%s</td><td>%d</td><td>%s</td><td>%.2f</td><td>%.2f</td></tr>",
				html.EscapeString(d.Granularity), html.EscapeString(d.Category),
				d.Sweep, d.At.UTC().Format(time.RFC3339), d.From, d.To)
		}
		b.WriteString("</table>")
	}
	for _, e := range snap.Errors {
		fmt.Fprintf(&b, "<p class=fail>error: %s</p>", html.EscapeString(e))
	}
	fmt.Fprint(w, b.String())
}
