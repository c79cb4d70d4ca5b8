package router

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"geoserp/internal/index"
	"geoserp/internal/webcorpus"
)

// The /shard/search body is fixed-width binary, little-endian. A shard
// never ships a document: every cluster node regenerates the same corpus
// from the seed, so a hit is its doc ordinal (its position in
// webcorpus.Web.All) plus the exact bits of its score, and the router
// fills the documents in from its own table.
//
//	header, 28 bytes:
//	  magic        [4]byte  "GSW1" (format and version)
//	  fingerprint  u64      webcorpus.Fingerprint of the shard's doc table
//	  shard        u32      the shard's ID
//	  shards       u32      the shard count it was partitioned for
//	  replica      u32      its replica ID
//	  hits         u32      record count, at most maxShardK
//	record, 12 bytes, once per hit:
//	  ordinal      u32      index into the doc table
//	  score        u64      math.Float64bits of the TF-IDF score
const (
	wireHeaderLen = 28
	wireRecordLen = 12
	// maxWireBody is the largest body a valid shard can send.
	maxWireBody = wireHeaderLen + maxShardK*wireRecordLen
)

// wireMagic opens every body. A JSON body starts with '{', so a node
// still speaking the old format is refused, not misparsed.
var wireMagic = [4]byte{'G', 'S', 'W', '1'}

// errCorpusMismatch marks a body stamped with another corpus's
// fingerprint: its ordinals name other documents.
var errCorpusMismatch = errors.New("corpus fingerprint mismatch")

// ShardResponse is one shard's answer, as carried by the binary
// /shard/search body described above.
type ShardResponse struct {
	// Fingerprint is webcorpus.Fingerprint of the shard's doc table; the
	// router refuses a body whose fingerprint is not its own corpus's.
	Fingerprint uint64
	// Shard echoes the answering shard's ID (mismatch = misrouted query).
	Shard int
	// Shards is the shard count the node's partition was cut for; a node
	// of a differently sized cluster serves a different document slice.
	Shards int
	// Replica echoes the answering node's replica ID within the shard's
	// ReplicaSet (mismatch = misrouted query). Every replica serves the
	// identical document slice, so this is a topology check, not a data
	// property.
	Replica int
	// Hits is the shard's top-k, already in merge order (score descending,
	// URL ascending). The wire carries each hit's Ord and Score; the
	// decoder fills Doc in from the router's corpus.
	Hits []index.Hit
}

// AppendShardResponse appends r's wire encoding to dst.
func AppendShardResponse(dst []byte, r ShardResponse) []byte {
	dst = append(dst, wireMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, r.Fingerprint)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Shard))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Shards))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Replica))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Hits)))
	for _, h := range r.Hits {
		dst = binary.LittleEndian.AppendUint32(dst, h.Ord)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
	}
	return dst
}

// DecodeShardResponse parses one /shard/search body and resolves its hits
// in corpus, the router's own doc table. It trusts nothing in the body: the
// magic tag, the exact length the hit count implies (at most maxShardK
// records), the fingerprint (errCorpusMismatch), and every ordinal's range
// are checked, and a NaN or infinite score is refused, since it would
// break the merge order.
func DecodeShardResponse(body []byte, corpus *webcorpus.Web) (ShardResponse, error) {
	var r ShardResponse
	if len(body) < wireHeaderLen {
		return ShardResponse{}, fmt.Errorf("short body: %d bytes", len(body))
	}
	if [4]byte(body[:4]) != wireMagic {
		return ShardResponse{}, fmt.Errorf("bad magic %q", body[:4])
	}
	le := binary.LittleEndian
	r.Fingerprint = le.Uint64(body[4:])
	r.Shard = int(le.Uint32(body[12:]))
	r.Shards = int(le.Uint32(body[16:]))
	r.Replica = int(le.Uint32(body[20:]))
	n := le.Uint32(body[24:])
	if n > maxShardK {
		return ShardResponse{}, fmt.Errorf("%d hits exceed the %d cap", n, maxShardK)
	}
	if want := wireHeaderLen + int(n)*wireRecordLen; len(body) != want {
		return ShardResponse{}, fmt.Errorf("body is %d bytes, %d hits need %d", len(body), n, want)
	}
	if want := corpus.Fingerprint(); r.Fingerprint != want {
		return ShardResponse{}, fmt.Errorf("%w: shard %016x, router %016x", errCorpusMismatch, r.Fingerprint, want)
	}
	if n == 0 {
		return r, nil
	}
	docs := corpus.All()
	r.Hits = make([]index.Hit, n)
	rec := body[wireHeaderLen:]
	for i := range r.Hits {
		ord := le.Uint32(rec)
		score := math.Float64frombits(le.Uint64(rec[4:]))
		rec = rec[wireRecordLen:]
		if uint64(ord) >= uint64(len(docs)) {
			return ShardResponse{}, fmt.Errorf("hit %d: ordinal %d outside a %d-doc corpus", i, ord, len(docs))
		}
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return ShardResponse{}, fmt.Errorf("hit %d: score %v", i, score)
		}
		r.Hits[i] = index.Hit{Doc: docs[ord], Score: score, Ord: ord}
	}
	return r, nil
}

// bodyBufs recycles the fixed-size read buffers of shard bodies.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, maxWireBody+1)
	return &b
}}

// readShardResponse reads a whole body through a size limit and decodes
// it. The pooled buffer is one byte larger than any valid body: filling it
// means the body is oversized, and the read stops there.
func readShardResponse(r io.Reader, corpus *webcorpus.Web) (ShardResponse, error) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	n, err := io.ReadFull(r, *buf)
	switch err {
	case nil:
		return ShardResponse{}, fmt.Errorf("body exceeds %d bytes", maxWireBody)
	case io.EOF, io.ErrUnexpectedEOF:
		return DecodeShardResponse((*buf)[:n], corpus)
	default:
		return ShardResponse{}, err
	}
}
