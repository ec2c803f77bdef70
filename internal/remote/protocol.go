package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/pipeline"
	"repro/internal/vec"
)

// Wire protocol v7. Every connection starts with a handshake:
//
//	client → server: magic "ACVP" | u32 version
//	server → client: magic "ACVP" | u32 version | u32 flags
//
// after which both directions exchange length-prefixed, CRC-framed
// messages (the same trailing-CRC idiom as pario's file formats, so
// corrupt or truncated transfers are detected):
//
//	u32 len(body) | body | u32 crc32(body)
//	body = u64 requestID | u8 opcode | payload
//
// Requests carry a client-chosen ID; every response echoes it, so a
// client can keep many requests in flight on one connection and match
// replies out of order — this is what lets the viewer's prefetcher
// overlap WAN fetches and the distributed extract stage overlap
// in-flight frames. Server-pushed frame notifications echo the
// Subscribe request's ID.
//
// v2 over v1: the Compute verb (remote stage execution against a
// Worker's named kernels), and error replies now carry a one-byte
// error code before the message text (WireError), so a client can
// distinguish "this server does not speak that verb" from an
// application failure without string matching.
//
// v3 over v2 is the fan-out revision — per-frame server work
// independent of subscriber count, per-frame bytes proportional to
// what changed:
//
//   - GetDelta: the client names a frame it already holds and the
//     server ships frame i as an RLE-compressed XOR residual against
//     it (render.CompressDelta), losslessly reconstructed client-side.
//   - Render requests carry a quality tier: lossless RLE (the default,
//     bit-identical to a local render) or a quantized 8-bit preview
//     (~4-5x smaller, documented lossy, never selected by default).
//     v2's 52-byte render payload still decodes (as lossless).
//   - Subscribe requests may carry a flags byte asking for inline
//     frame payloads: the server encodes each new frame once and
//     writes the same buffer to every subscriber (opNotifyFrame)
//     instead of pushing a count that every client answers with a
//     full Get.
//
// v4 over v3 is the fleet revision — what a dispatcher needs to run a
// stage across many workers and survive losing some of them:
//
//   - Kernels: a worker answers with the list of stage kernels it
//     hosts, so a Fleet verifies each member's provisioning at connect
//     (and at every rejoin probe) instead of discovering a missing
//     kernel one failed frame at a time. Stores answer it like any
//     verb they do not speak: typed ErrCodeUnknownVerb, connection
//     kept.
//   - ErrCodeUnavailable: a draining worker (graceful shutdown)
//     refuses new Compute requests with this code before starting
//     them. It is an explicit "retry elsewhere" — the fleet classifies
//     it transient and re-dispatches, unlike application errors which
//     would fail identically on every member.
//
// v5 over v4 is the resilient-session revision — what a long-lived
// viewer over a flaky WAN needs:
//
//   - Ping: a no-payload liveness round trip. Clients heartbeat idle
//     connections with it (ClientOptions.HeartbeatInterval) and both
//     sides run idle deadlines, so a dead peer is detected in bounded
//     time instead of a subscription hanging forever on a connection
//     the kernel never reports dead.
//   - Stats: the measurement surface — the service answers with its
//     ServiceStats counters plus a per-session table (queue depth,
//     drop/degrade counters), so operators and the self-balancing
//     machinery see where a fan-out spends its time and which
//     subscriber is the slow one.
//   - ErrCodeUnavailable now also answers requests refused by
//     admission control (ServiceOptions.MaxSessions / MaxRenders) and
//     subscribers evicted by the SlowEvict overload policy: in every
//     case the same request is welcome later or elsewhere, so
//     ReconnectClient backs off and redials rather than failing.
//
// v6 over v5 is the sort-last distributed rendering revision. No new
// opcode: the change is a third built-in worker kernel riding the
// Compute verb, plus the wire blobs it speaks. The built-in kernel
// table as of v6:
//
//	hybrid.extract.v1   "ACPT" point set in    .achy representation out
//	fieldline.trace.v1  "ACFS" seed batch in   "ACFR" traced lines out
//	render.partial.v1   "ACPR" sub-volume in   "ACPB" RGBA+depth partial out
//
// render.partial.v1 takes one contiguous octree-ordered slice of a
// frame's halo points with the camera/TF parameters and returns the
// slice's rendered partial framebuffer, RLE-compressed with its depth
// plane (render.CompressPartial). The requester composites the
// partials in partition order (compositor.CompositeDepth) and runs
// the volume pass over the merged image, reproducing the single-node
// frame bit for bit at any partition and worker count. The version
// bump exists so a v5 peer — which would answer the kernel name with
// ErrCodeUnknownKernel only after a frame-sized request crossed the
// wire — is refused at handshake instead.
//
// v7 over v6 is the self-balancing revision: the Stats response grows
// a per-stage pipeline telemetry table after the session records. A
// service backed by a live in-situ stream publishes its pipeline's
// snapshot (Service.SetPipelineStats) — one record per stage, in
// chain order: kind, worker count and rebalance bounds, in-flight and
// completed frames, service-time EWMA, the windowed throughput /
// utilization / queue-wait rates, and the placement side with its
// per-side EWMAs — so an operator watching vizclient -stats sees the
// same critical-path table the stream's balancer acts on. An absent
// table (a store-backed service with no pipeline) encodes as a zero
// stage count.

var protoMagic = [4]byte{'A', 'C', 'V', 'P'}

const (
	protoVersion = 7

	// maxBody bounds a message body so a corrupt or hostile length
	// prefix cannot cause an arbitrary allocation.
	maxBody = 1 << 30

	// bodyChunk is the largest body read into one buffer sized by the
	// length prefix alone. A longer body grows its buffer as its bytes
	// arrive (readBody), so a peer commits the reader to at most about
	// twice what it actually sent.
	bodyChunk = 1 << 20

	// msgOverhead is the body size before the payload: request ID + op.
	msgOverhead = 8 + 1
)

// Opcodes. Responses are the request opcode with the high bit set;
// opError and opNotify stand alone.
const (
	opList      byte = 0x01
	opGet       byte = 0x02
	opSubscribe byte = 0x03
	opRender    byte = 0x04
	opCompute   byte = 0x05
	opGetDelta  byte = 0x06
	opKernels   byte = 0x07
	opPing      byte = 0x08
	opStats     byte = 0x09

	opListOK      byte = 0x81
	opGetOK       byte = 0x82
	opSubscribeOK byte = 0x83
	opRenderOK    byte = 0x84
	opComputeOK   byte = 0x85
	opGetDeltaOK  byte = 0x86
	opKernelsOK   byte = 0x87
	opPingOK      byte = 0x88
	opStatsOK     byte = 0x89

	opNotify      byte = 0x90
	opNotifyFrame byte = 0x91
	opError       byte = 0xFF
)

// subFlagInline, set in a Subscribe request's flags byte, asks the
// server to push each new frame's wire encoding inline (opNotifyFrame)
// instead of a bare count (opNotify).
const subFlagInline byte = 1 << 0

// notifyFrameHeader is the fixed prefix of an opNotifyFrame payload:
// u64 frames | u32 index, followed by the frame's wire encoding.
const notifyFrameHeader = 8 + 4

// ErrorCode classifies an error reply so clients can react to the
// class without parsing the message text.
type ErrorCode uint8

const (
	// ErrCodeGeneric is an unclassified application failure (missing
	// frame, render error, kernel failure).
	ErrCodeGeneric ErrorCode = 0
	// ErrCodeUnknownVerb: the request was well-framed but its opcode is
	// not one this service speaks. The connection stays usable — an
	// unknown verb says nothing about the framing.
	ErrCodeUnknownVerb ErrorCode = 1
	// ErrCodeBadRequest: the verb is known but its payload did not
	// decode.
	ErrCodeBadRequest ErrorCode = 2
	// ErrCodeUnknownKernel: a Compute named a kernel the worker has not
	// registered.
	ErrCodeUnknownKernel ErrorCode = 3
	// ErrCodeUnavailable: the worker is draining toward shutdown and
	// did not start the request. Transient by definition — the same
	// request is welcome on any other member of the fleet, so
	// IsTransient classifies it retryable.
	ErrCodeUnavailable ErrorCode = 4
)

// WireError is a typed protocol error: what a service sends in an
// opError reply and what client calls return for one. Test with
// errors.As plus the Code field (or the CodeOf shortcut).
type WireError struct {
	Code ErrorCode
	Msg  string
}

func (e *WireError) Error() string { return e.Msg }

// CodeOf extracts the error code from err's chain, or ErrCodeGeneric
// if no WireError is present.
func CodeOf(err error) ErrorCode {
	var we *WireError
	if errors.As(err, &we) {
		return we.Code
	}
	return ErrCodeGeneric
}

// encodeWireError builds an opError payload: u8 code | message text.
func encodeWireError(err error) []byte {
	code := ErrCodeGeneric
	var we *WireError
	if errors.As(err, &we) {
		code = we.Code
	}
	return append([]byte{byte(code)}, err.Error()...)
}

// decodeWireError parses an opError payload. A legacy empty payload
// decodes as a generic error rather than failing.
func decodeWireError(p []byte) *WireError {
	if len(p) == 0 {
		return &WireError{Code: ErrCodeGeneric, Msg: "unspecified server error"}
	}
	return &WireError{Code: ErrorCode(p[0]), Msg: string(p[1:])}
}

// message is one decoded protocol frame. body is the pooled backing
// buffer of payload (when the message came off the wire); consumers
// that fully copy what they need out of payload may recycle it.
type message struct {
	reqID   uint64
	op      byte
	payload []byte
	body    []byte
}

// recycle returns the message's backing buffer to the payload pool.
// The caller must not touch payload afterwards.
func (m message) recycle() {
	if m.body != nil {
		putBytes(m.body)
	}
}

// writeMessage frames and sends one message. The caller serializes
// concurrent writers.
func writeMessage(w *bufio.Writer, reqID uint64, op byte, payload []byte) error {
	return writeMessageVec(w, reqID, op, payload)
}

// writeMessageVec is writeMessage over a vectored payload: the
// segments are framed as one contiguous payload without being joined
// in memory first. The broadcast path leans on this — a shared frame
// encoding goes out to every subscriber prefixed by a tiny
// per-connection header, no per-subscriber copy of the frame.
func writeMessageVec(w *bufio.Writer, reqID uint64, op byte, segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > maxBody-msgOverhead {
		return fmt.Errorf("remote: message payload %d exceeds limit", total)
	}
	le := binary.LittleEndian
	var head [4 + msgOverhead]byte
	le.PutUint32(head[0:], uint32(msgOverhead+total))
	le.PutUint64(head[4:], reqID)
	head[12] = op
	crc := crc32.NewIEEE()
	crc.Write(head[4:])
	for _, s := range segs {
		crc.Write(s)
	}
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("remote: writing message header: %w", err)
	}
	for _, s := range segs {
		if _, err := w.Write(s); err != nil {
			return fmt.Errorf("remote: writing message payload: %w", err)
		}
	}
	var tail [4]byte
	le.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("remote: writing message checksum: %w", err)
	}
	return w.Flush()
}

// readMessage decodes one message from r. rateBps > 0 throttles the
// body read to that many bytes per second (the client's WAN model).
// Malformed input — truncated header or body, an implausible length, a
// checksum mismatch — returns an error and never panics.
func readMessage(r io.Reader, rateBps int64) (message, error) {
	le := binary.LittleEndian
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return message{}, err // io.EOF here is a clean close
	}
	n := le.Uint32(lenBuf[:])
	if n < msgOverhead {
		return message{}, fmt.Errorf("remote: message body %d shorter than header", n)
	}
	if n > maxBody {
		return message{}, fmt.Errorf("remote: implausible message body %d", n)
	}
	body, err := readBody(r, int(n), rateBps)
	if err != nil {
		return message{}, fmt.Errorf("remote: reading message body: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		putBytes(body)
		return message{}, fmt.Errorf("remote: reading message checksum: %w", err)
	}
	if got, want := le.Uint32(crcBuf[:]), crc32.ChecksumIEEE(body); got != want {
		putBytes(body)
		return message{}, fmt.Errorf("remote: message checksum mismatch (wire %08x, computed %08x)", got, want)
	}
	return message{
		reqID:   le.Uint64(body[0:]),
		op:      body[8],
		payload: body[msgOverhead:],
		body:    body,
	}, nil
}

// readBody reads an n-byte message body into a pooled buffer. A body
// up to bodyChunk bytes takes one buffer of its claimed size; a longer
// one starts at bodyChunk and doubles (capped at n) only once the
// bytes so far have arrived.
func readBody(r io.Reader, n int, rateBps int64) ([]byte, error) {
	body := getBytes(min(n, bodyChunk))
	read := 0
	for {
		if err := readThrottled(r, body[read:], rateBps); err != nil {
			putBytes(body)
			return nil, err
		}
		if read = len(body); read == n {
			return body, nil
		}
		next := getBytes(min(2*read, n))
		copy(next, body)
		putBytes(body)
		body = next
	}
}

// readThrottled fills p, sleeping as needed to hold the modeled link
// rate — the "10 seconds for a 100MB time step" arithmetic of §2.5.
func readThrottled(r io.Reader, p []byte, rateBps int64) error {
	if rateBps <= 0 {
		_, err := io.ReadFull(r, p)
		return err
	}
	const chunk = 64 << 10
	read := 0
	start := time.Now()
	for read < len(p) {
		n := min(chunk, len(p)-read)
		if _, err := io.ReadFull(r, p[read:read+n]); err != nil {
			return err
		}
		read += n
		ideal := time.Duration(float64(read) / float64(rateBps) * float64(time.Second))
		if elapsed := time.Since(start); elapsed < ideal {
			time.Sleep(ideal - elapsed)
		}
	}
	return nil
}

// clientHello / serverHello run the version handshake.
func clientHello(conn io.ReadWriter) error {
	var out [8]byte
	copy(out[:], protoMagic[:])
	binary.LittleEndian.PutUint32(out[4:], protoVersion)
	if _, err := conn.Write(out[:]); err != nil {
		return fmt.Errorf("remote: sending hello: %w", err)
	}
	var in [12]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return fmt.Errorf("remote: reading server hello: %w", err)
	}
	if [4]byte(in[:4]) != protoMagic {
		return fmt.Errorf("remote: bad server magic %q", in[:4])
	}
	if v := binary.LittleEndian.Uint32(in[4:]); v != protoVersion {
		return fmt.Errorf("remote: server speaks protocol v%d, client v%d", v, protoVersion)
	}
	return nil
}

func serverHello(conn io.ReadWriter) error {
	var in [8]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return fmt.Errorf("remote: reading client hello: %w", err)
	}
	if [4]byte(in[:4]) != protoMagic {
		return fmt.Errorf("remote: bad client magic %q", in[:4])
	}
	if v := binary.LittleEndian.Uint32(in[4:]); v != protoVersion {
		return fmt.Errorf("remote: client speaks protocol v%d, server v%d", v, protoVersion)
	}
	var out [12]byte
	copy(out[:], protoMagic[:])
	binary.LittleEndian.PutUint32(out[4:], protoVersion)
	binary.LittleEndian.PutUint32(out[8:], 0) // flags, reserved
	if _, err := conn.Write(out[:]); err != nil {
		return fmt.Errorf("remote: sending hello: %w", err)
	}
	return nil
}

// ListInfo is the List response: the store's frame range and liveness.
type ListInfo struct {
	Frames int  // frames published so far; valid indices end here
	First  int  // oldest index still available (live rings evict)
	Live   bool // whether the store can push new frames to subscribers
}

func encodeListInfo(li ListInfo) []byte {
	out := make([]byte, 17)
	le := binary.LittleEndian
	le.PutUint64(out[0:], uint64(li.Frames))
	le.PutUint64(out[8:], uint64(li.First))
	if li.Live {
		out[16] = 1
	}
	return out
}

func decodeListInfo(p []byte) (ListInfo, error) {
	if len(p) != 17 {
		return ListInfo{}, fmt.Errorf("remote: list payload %d bytes, want 17", len(p))
	}
	le := binary.LittleEndian
	li := ListInfo{
		Frames: int(le.Uint64(p[0:])),
		First:  int(le.Uint64(p[8:])),
		Live:   p[16] != 0,
	}
	if li.Frames < 0 || li.First < 0 || li.First > li.Frames {
		return ListInfo{}, fmt.Errorf("remote: inconsistent list payload (%d frames, first %d)", li.Frames, li.First)
	}
	return li, nil
}

// RenderQuality selects the wire codec of a server-side render — the
// client-negotiated quality tier of protocol v3.
type RenderQuality uint8

const (
	// QualityLossless ships the full float framebuffer under lossless
	// word-RLE, bit-identical to a local render. The default: stills
	// and anything quantitative use it.
	QualityLossless RenderQuality = 0
	// QualityPreview ships a quantized 8-bit color image (~4-5x
	// smaller) with no depth plane — preview-grade interaction only.
	// LOSSY: bit-identical only to its own decode, never to the
	// lossless tier, and never selected unless the client asks.
	QualityPreview RenderQuality = 1
)

func (q RenderQuality) valid() bool { return q <= QualityPreview }

// RenderParams is the thin-client request: instead of transferring the
// full hybrid frame, the client ships camera and transfer-function
// parameters and the server renders on its tile-binned rasterizer,
// returning an RLE-compressed framebuffer. Zero-valued TF fields mean
// the server's defaults (hybrid.DefaultTF), so a zero-TF render is
// bit-identical to core.RenderFrame run locally.
type RenderParams struct {
	Frame         int
	Width, Height int
	ViewDir       vec.V3
	// VolumeOpacity overrides the transfer function's opacity scale
	// when > 0.
	VolumeOpacity float64
	// LogDomainK overrides the log-domain expansion constant when > 0.
	LogDomainK float64
	// Quality selects the response codec; the zero value is lossless.
	Quality RenderQuality
}

// renderParamsLenV2 is the v2 payload size, still accepted (decoding
// as QualityLossless); v3 appends one quality byte.
const renderParamsLenV2 = 12 + 5*8

func encodeRenderParams(p RenderParams) []byte {
	out := make([]byte, renderParamsLenV2+1)
	le := binary.LittleEndian
	le.PutUint32(out[0:], uint32(p.Frame))
	le.PutUint32(out[4:], uint32(p.Width))
	le.PutUint32(out[8:], uint32(p.Height))
	for i, f := range []float64{p.ViewDir.X, p.ViewDir.Y, p.ViewDir.Z, p.VolumeOpacity, p.LogDomainK} {
		le.PutUint64(out[12+8*i:], math.Float64bits(f))
	}
	out[renderParamsLenV2] = byte(p.Quality)
	return out
}

func decodeRenderParams(p []byte) (RenderParams, error) {
	var quality RenderQuality
	switch len(p) {
	case renderParamsLenV2: // v2 client: lossless
	case renderParamsLenV2 + 1:
		quality = RenderQuality(p[renderParamsLenV2])
		if !quality.valid() {
			return RenderParams{}, fmt.Errorf("remote: unknown render quality tier %d", quality)
		}
	default:
		return RenderParams{}, fmt.Errorf("remote: render payload %d bytes, want %d or %d", len(p), renderParamsLenV2, renderParamsLenV2+1)
	}
	le := binary.LittleEndian
	var f [5]float64
	for i := range f {
		f[i] = math.Float64frombits(le.Uint64(p[12+8*i:]))
	}
	rp := RenderParams{
		Frame:         int(int32(le.Uint32(p[0:]))),
		Width:         int(le.Uint32(p[4:])),
		Height:        int(le.Uint32(p[8:])),
		ViewDir:       vec.New(f[0], f[1], f[2]),
		VolumeOpacity: f[3],
		LogDomainK:    f[4],
		Quality:       quality,
	}
	// Bound the framebuffer a request can demand: like maxBody, a
	// hostile 52-byte message must not force an arbitrary server-side
	// allocation (4096x4096 is ~335MB of framebuffer already).
	if rp.Width < 1 || rp.Height < 1 || rp.Width > 4096 || rp.Height > 4096 ||
		rp.Width*rp.Height > 1<<22 {
		return RenderParams{}, fmt.Errorf("remote: implausible render size %dx%d", rp.Width, rp.Height)
	}
	return rp, nil
}

// encodeGetDelta builds a GetDelta request payload: u32 frame | u32
// base — "send me frame, I hold base".
func encodeGetDelta(frame, base int) []byte {
	out := make([]byte, 8)
	le := binary.LittleEndian
	le.PutUint32(out[0:], uint32(frame))
	le.PutUint32(out[4:], uint32(base))
	return out
}

func decodeGetDelta(p []byte) (frame, base int, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("remote: get-delta payload %d bytes, want 8", len(p))
	}
	le := binary.LittleEndian
	return int(int32(le.Uint32(p[0:]))), int(int32(le.Uint32(p[4:]))), nil
}

// encodeKernelList builds a Kernels response payload:
// u16 count | count × (u8 len | name). Kernel names are already
// bounded to maxKernelName by Register/appendComputeHeader.
func encodeKernelList(names []string) ([]byte, error) {
	if len(names) > math.MaxUint16 {
		return nil, fmt.Errorf("remote: %d kernels exceed the advertisement limit", len(names))
	}
	out := make([]byte, 2, 2+16*len(names))
	binary.LittleEndian.PutUint16(out, uint16(len(names)))
	for _, name := range names {
		if len(name) == 0 || len(name) > maxKernelName {
			return nil, fmt.Errorf("remote: kernel name %q length out of range [1, %d]", name, maxKernelName)
		}
		out = append(out, byte(len(name)))
		out = append(out, name...)
	}
	return out, nil
}

// decodeKernelList parses a Kernels response payload. Malformed input
// returns an error and never panics.
func decodeKernelList(p []byte) ([]string, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("remote: kernel list payload %d bytes, want >= 2", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("remote: kernel list truncated at entry %d", i)
		}
		l := int(p[0])
		if l == 0 || len(p) < 1+l {
			return nil, fmt.Errorf("remote: kernel list entry %d truncated (%d of %d name bytes)", i, len(p)-1, l)
		}
		names = append(names, string(p[1:1+l]))
		p = p[1+l:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("remote: %d trailing bytes after kernel list", len(p))
	}
	return names, nil
}

// SessionStats is one connection's row in the Stats response: who it
// is, whether it subscribes (and how), and how its bounded send queue
// is doing — the per-subscriber half of the overload measurement
// surface. Counters are cumulative over the session's life.
type SessionStats struct {
	ID         uint64 // server-assigned session id, stable for the connection
	Remote     string // peer address
	Subscribed bool   // has an active subscription
	Inline     bool   // subscription asked for inline frame payloads
	Refused    bool   // admission-refused: every verb answers ErrCodeUnavailable
	QueueDepth int    // pushes waiting in the send queue right now
	QueueCap   int    // the queue's bound
	Dropped    uint64 // pushes dropped by the skip policy (overflow)
	Degraded   uint64 // pushes degraded to count-only notifies (overflow)
	Sent       uint64 // pushes actually written to the wire
	LastSent   int    // frame count of the newest push written (0 = none)
}

// StatsReport is the Stats verb's response: the service-wide counters,
// one row per live session, and — when the service fronts a live
// in-situ stream — the stream's per-stage pipeline telemetry table
// (protocol v7).
type StatsReport struct {
	Stats    ServiceStats
	Sessions []SessionStats
	Pipeline []pipeline.StageSnapshot
}

// Session flag bits in the wire encoding.
const (
	sessFlagSubscribed byte = 1 << 0
	sessFlagInline     byte = 1 << 1
	sessFlagRefused    byte = 1 << 2
)

// statsSessionFixed is the fixed-size prefix of one session record:
// u64 id | u8 flags | u32 depth | u32 cap | 4×u64 counters | u8 len.
const statsSessionFixed = 8 + 1 + 4 + 4 + 4*8 + 1

// Stage flag bits in the wire encoding (protocol v7).
const (
	stageFlagResizable byte = 1 << 0
	stageFlagPlaceable byte = 1 << 1
	stageFlagRemote    byte = 1 << 2
	stageFlagCritical  byte = 1 << 3
	stageFlagFinished  byte = 1 << 4
)

// statsStageFixed is the fixed-size prefix of one pipeline stage
// record: u8 kind | u8 flags | 4×u32 (workers, min, max, in-flight) |
// 6×u64 (done, service/local/remote EWMA ns, window ns, fallbacks) |
// 4×f64 (throughput, utilization, recv-wait, send-wait) | u8 nameLen.
const statsStageFixed = 1 + 1 + 4*4 + 6*8 + 4*8 + 1

// encodeStatsReport builds a Stats response payload:
//
//	u16 counterCount | counterCount × u64 | u32 sessionCount | records
//
// The counter count is on the wire so a future revision can append
// counters without breaking older decoders.
func encodeStatsReport(r StatsReport) []byte {
	counters := r.Stats.counters()
	le := binary.LittleEndian
	out := make([]byte, 0, 2+8*len(counters)+4+len(r.Sessions)*(statsSessionFixed+16))
	out = le.AppendUint16(out, uint16(len(counters)))
	for _, c := range counters {
		out = le.AppendUint64(out, c)
	}
	out = le.AppendUint32(out, uint32(len(r.Sessions)))
	for _, s := range r.Sessions {
		out = le.AppendUint64(out, s.ID)
		var flags byte
		if s.Subscribed {
			flags |= sessFlagSubscribed
		}
		if s.Inline {
			flags |= sessFlagInline
		}
		if s.Refused {
			flags |= sessFlagRefused
		}
		out = append(out, flags)
		out = le.AppendUint32(out, uint32(s.QueueDepth))
		out = le.AppendUint32(out, uint32(s.QueueCap))
		out = le.AppendUint64(out, s.Dropped)
		out = le.AppendUint64(out, s.Degraded)
		out = le.AppendUint64(out, s.Sent)
		out = le.AppendUint64(out, uint64(s.LastSent))
		remote := s.Remote
		if len(remote) > math.MaxUint8 {
			remote = remote[:math.MaxUint8]
		}
		out = append(out, byte(len(remote)))
		out = append(out, remote...)
	}
	// v7: pipeline stage table.
	out = le.AppendUint16(out, uint16(len(r.Pipeline)))
	for _, st := range r.Pipeline {
		out = append(out, byte(st.Kind))
		var flags byte
		if st.Resizable {
			flags |= stageFlagResizable
		}
		if st.Placeable {
			flags |= stageFlagPlaceable
		}
		if st.Remote {
			flags |= stageFlagRemote
		}
		if st.Critical {
			flags |= stageFlagCritical
		}
		if st.Finished {
			flags |= stageFlagFinished
		}
		out = append(out, flags)
		out = le.AppendUint32(out, uint32(st.Workers))
		out = le.AppendUint32(out, uint32(st.MinWorkers))
		out = le.AppendUint32(out, uint32(st.MaxWorkers))
		out = le.AppendUint32(out, uint32(st.InFlight))
		out = le.AppendUint64(out, st.Done)
		out = le.AppendUint64(out, uint64(st.ServiceEWMA))
		out = le.AppendUint64(out, uint64(st.LocalEWMA))
		out = le.AppendUint64(out, uint64(st.RemoteEWMA))
		out = le.AppendUint64(out, uint64(st.Window))
		out = le.AppendUint64(out, st.Fallbacks)
		out = le.AppendUint64(out, math.Float64bits(st.Throughput))
		out = le.AppendUint64(out, math.Float64bits(st.Utilization))
		out = le.AppendUint64(out, math.Float64bits(st.RecvWait))
		out = le.AppendUint64(out, math.Float64bits(st.SendWait))
		name := st.Name
		if len(name) > math.MaxUint8 {
			name = name[:math.MaxUint8]
		}
		out = append(out, byte(len(name)))
		out = append(out, name...)
	}
	return out
}

// decodeStatsReport parses a Stats response payload. Malformed input —
// truncated records, hostile counts, trailing bytes — returns an error
// and never panics or over-allocates.
func decodeStatsReport(p []byte) (StatsReport, error) {
	le := binary.LittleEndian
	if len(p) < 2 {
		return StatsReport{}, fmt.Errorf("remote: stats payload %d bytes, want >= 2", len(p))
	}
	nc := int(le.Uint16(p))
	p = p[2:]
	if len(p) < 8*nc {
		return StatsReport{}, fmt.Errorf("remote: stats payload truncated at counter table (%d of %d counters)", len(p)/8, nc)
	}
	counters := make([]uint64, nc)
	for i := range counters {
		counters[i] = le.Uint64(p[8*i:])
	}
	p = p[8*nc:]
	var r StatsReport
	r.Stats.setCounters(counters)
	if len(p) < 4 {
		return StatsReport{}, fmt.Errorf("remote: stats payload truncated before session count")
	}
	ns := int(le.Uint32(p))
	p = p[4:]
	if ns > len(p)/statsSessionFixed {
		return StatsReport{}, fmt.Errorf("remote: stats payload claims %d sessions in %d bytes", ns, len(p))
	}
	r.Sessions = make([]SessionStats, 0, ns)
	for i := 0; i < ns; i++ {
		if len(p) < statsSessionFixed {
			return StatsReport{}, fmt.Errorf("remote: stats session %d truncated", i)
		}
		var s SessionStats
		s.ID = le.Uint64(p[0:])
		flags := p[8]
		s.Subscribed = flags&sessFlagSubscribed != 0
		s.Inline = flags&sessFlagInline != 0
		s.Refused = flags&sessFlagRefused != 0
		s.QueueDepth = int(le.Uint32(p[9:]))
		s.QueueCap = int(le.Uint32(p[13:]))
		s.Dropped = le.Uint64(p[17:])
		s.Degraded = le.Uint64(p[25:])
		s.Sent = le.Uint64(p[33:])
		s.LastSent = int(int64(le.Uint64(p[41:])))
		nameLen := int(p[49])
		p = p[statsSessionFixed:]
		if len(p) < nameLen {
			return StatsReport{}, fmt.Errorf("remote: stats session %d remote addr truncated (%d of %d bytes)", i, len(p), nameLen)
		}
		s.Remote = string(p[:nameLen])
		p = p[nameLen:]
		r.Sessions = append(r.Sessions, s)
	}
	if len(p) == 0 {
		// v6-shaped payload: no stage table. Keeps pre-v7 fuzz corpora
		// (and a zero-value report round trip) decoding cleanly.
		return r, nil
	}
	if len(p) < 2 {
		return StatsReport{}, fmt.Errorf("remote: stats payload truncated before stage count")
	}
	nst := int(le.Uint16(p))
	p = p[2:]
	if nst > len(p)/statsStageFixed {
		return StatsReport{}, fmt.Errorf("remote: stats payload claims %d stages in %d bytes", nst, len(p))
	}
	if nst > 0 {
		r.Pipeline = make([]pipeline.StageSnapshot, 0, nst)
	}
	for i := 0; i < nst; i++ {
		if len(p) < statsStageFixed {
			return StatsReport{}, fmt.Errorf("remote: stats stage %d truncated", i)
		}
		var st pipeline.StageSnapshot
		st.Kind = pipeline.StageKind(p[0])
		flags := p[1]
		st.Resizable = flags&stageFlagResizable != 0
		st.Placeable = flags&stageFlagPlaceable != 0
		st.Remote = flags&stageFlagRemote != 0
		st.Critical = flags&stageFlagCritical != 0
		st.Finished = flags&stageFlagFinished != 0
		st.Workers = int(le.Uint32(p[2:]))
		st.MinWorkers = int(le.Uint32(p[6:]))
		st.MaxWorkers = int(le.Uint32(p[10:]))
		st.InFlight = int(le.Uint32(p[14:]))
		st.Done = le.Uint64(p[18:])
		st.ServiceEWMA = time.Duration(le.Uint64(p[26:]))
		st.LocalEWMA = time.Duration(le.Uint64(p[34:]))
		st.RemoteEWMA = time.Duration(le.Uint64(p[42:]))
		st.Window = time.Duration(le.Uint64(p[50:]))
		st.Fallbacks = le.Uint64(p[58:])
		st.Throughput = math.Float64frombits(le.Uint64(p[66:]))
		st.Utilization = math.Float64frombits(le.Uint64(p[74:]))
		st.RecvWait = math.Float64frombits(le.Uint64(p[82:]))
		st.SendWait = math.Float64frombits(le.Uint64(p[90:]))
		nameLen := int(p[98])
		p = p[statsStageFixed:]
		if len(p) < nameLen {
			return StatsReport{}, fmt.Errorf("remote: stats stage %d name truncated (%d of %d bytes)", i, len(p), nameLen)
		}
		st.Name = string(p[:nameLen])
		p = p[nameLen:]
		r.Pipeline = append(r.Pipeline, st)
	}
	if len(p) != 0 {
		return StatsReport{}, fmt.Errorf("remote: %d trailing bytes after stats report", len(p))
	}
	return r, nil
}

// TransferEstimate returns how long a payload of the given size takes
// at the given bandwidth — the arithmetic behind the paper's frame
// budgeting (100MB at ~10MB/s ≈ 10 s).
func TransferEstimate(bytes, bandwidthBps int64) time.Duration {
	if bandwidthBps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(bandwidthBps) * float64(time.Second))
}
