package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ftmp/internal/ids"
)

func hdr(t MsgType) Header {
	return Header{
		Type:      t,
		Source:    ids.ProcessorID(7),
		DestGroup: ids.GroupID(3),
		Seq:       ids.SeqNum(42),
		MsgTS:     ids.MakeTimestamp(100, 7),
		AckTS:     ids.MakeTimestamp(90, 7),
	}
}

// allBodies returns one representative body per message type.
func allBodies() []Body {
	conn := ids.ConnectionID{ClientDomain: 1, ClientGroup: 2, ServerDomain: 3, ServerGroup: 4}
	return []Body{
		&Regular{Conn: conn, RequestNum: 9, Payload: []byte("GIOP-payload")},
		&RetransmitRequest{Proc: 5, StartSeq: 10, StopSeq: 12},
		&Heartbeat{},
		&ConnectRequest{Conn: conn, Procs: ids.NewMembership(1, 2, 3)},
		&Connect{
			Conn: conn, Group: 8,
			Addr:         MulticastAddr{IP: [4]byte{239, 1, 2, 3}, Port: 5000},
			MembershipTS: ids.MakeTimestamp(55, 1), CurrentMembership: ids.NewMembership(1, 2),
		},
		&AddProcessor{
			MembershipTS:      ids.MakeTimestamp(60, 2),
			CurrentMembership: ids.NewMembership(1, 2, 3),
			CurrentSeqs:       SeqVector{{1, 10}, {2, 20}, {3, 30}},
			NewMember:         4,
		},
		&RemoveProcessor{Member: 2},
		&Suspect{MembershipTS: ids.MakeTimestamp(70, 3), Suspects: ids.NewMembership(2)},
		&MembershipMsg{
			MembershipTS:      ids.MakeTimestamp(80, 1),
			CurrentMembership: ids.NewMembership(1, 2, 3, 4),
			CurrentSeqs:       SeqVector{{1, 1}, {2, 2}, {3, 3}, {4, 4}},
			NewMembership:     ids.NewMembership(1, 3, 4),
			Epoch:             6,
			PredecessorTS:     ids.MakeTimestamp(75, 2),
		},
		&Packed{Entries: []PackedEntry{
			{Seq: 42, TS: ids.MakeTimestamp(99, 7), Conn: conn, RequestNum: 9, Payload: []byte("first")},
			{Seq: 43, TS: ids.MakeTimestamp(100, 7), Conn: conn, RequestNum: 10, Payload: []byte("second")},
		}},
		&SeqData{
			Conn: conn, RequestNum: 11, Payload: []byte("sequenced"),
			Epoch: 3, First: 17, Refs: []SeqRef{{Source: 2, Seq: 40}, {Source: 1, Seq: 6}},
		},
		&SeqAssign{Epoch: 3, First: 19, Refs: []SeqRef{{Source: 4, Seq: 12}}},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, little := range []bool{false, true} {
		for _, body := range allBodies() {
			h := hdr(body.Type())
			h.LittleEndian = little
			buf, err := Encode(h, body)
			if err != nil {
				t.Fatalf("Encode(%v): %v", body.Type(), err)
			}
			m, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode(%v, little=%v): %v", body.Type(), little, err)
			}
			if m.Header.Type != body.Type() {
				t.Errorf("type = %v, want %v", m.Header.Type, body.Type())
			}
			if m.Header.Source != h.Source || m.Header.DestGroup != h.DestGroup ||
				m.Header.Seq != h.Seq || m.Header.MsgTS != h.MsgTS || m.Header.AckTS != h.AckTS {
				t.Errorf("header fields mangled: %+v", m.Header)
			}
			if m.Header.Size != uint32(len(buf)) {
				t.Errorf("Size = %d, want %d", m.Header.Size, len(buf))
			}
			if !reflect.DeepEqual(normalize(m.Body), normalize(body)) {
				t.Errorf("%v body round-trip:\n got %#v\nwant %#v", body.Type(), m.Body, body)
			}
		}
	}
}

// normalize maps empty slices to nil so DeepEqual treats an encoded-empty
// and a nil slice identically.
func normalize(b Body) Body {
	switch v := b.(type) {
	case *Regular:
		if len(v.Payload) == 0 {
			c := *v
			c.Payload = nil
			return &c
		}
	}
	return b
}

func TestRetransmissionFlag(t *testing.T) {
	h := hdr(TypeRegular)
	h.Retransmission = true
	buf, err := Encode(h, &Regular{Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Retransmission {
		t.Error("retransmission flag lost")
	}
}

func TestEncapsulationLayout(t *testing.T) {
	// Paper Figure 2: the GIOP message sits after the FTMP header. The
	// payload bytes must appear verbatim inside the encoding.
	giop := []byte("GIOP\x01\x00\x00\x00hello")
	buf, err := Encode(hdr(TypeRegular), &Regular{Payload: giop})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf[HeaderSize:], giop) {
		t.Error("GIOP payload not encapsulated verbatim after FTMP header")
	}
	if !bytes.Equal(buf[0:4], Magic[:]) {
		t.Error("FTMP magic missing at offset 0")
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := Encode(hdr(TypeRegular), &Regular{Payload: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short buffer", func(t *testing.T) {
		if _, err := Decode(good[:10]); !errors.Is(err, ErrShort) {
			t.Errorf("err = %v, want ErrShort", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[4] = 9
		if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[7] = 200
		if _, err := Decode(b); !errors.Is(err, ErrBadType) {
			t.Errorf("err = %v, want ErrBadType", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b = b[:len(b)-2]
		if _, err := Decode(b); err == nil {
			t.Error("truncated body decoded without error")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		// Extend the datagram without updating Size: header check fires.
		b := append(append([]byte(nil), good...), 0, 0)
		if _, err := Decode(b); !errors.Is(err, ErrBadSize) {
			t.Errorf("err = %v, want ErrBadSize", err)
		}
	})
	t.Run("size larger than max", func(t *testing.T) {
		b := append([]byte(nil), good...)
		// Size is big-endian at offset 8 for this header.
		b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
		if _, err := Decode(b); err == nil {
			t.Error("oversize accepted")
		}
	})
	t.Run("body length field past end", func(t *testing.T) {
		// Corrupt the Regular payload length to exceed the buffer.
		b := append([]byte(nil), good...)
		off := HeaderSize + 16 + 8 // connID + requestNum
		b[off], b[off+1], b[off+2], b[off+3] = 0x7f, 0xff, 0xff, 0xff
		if _, err := Decode(b); err == nil {
			t.Error("huge length field accepted")
		}
	})
}

func TestEncodeNilBody(t *testing.T) {
	if _, err := Encode(hdr(TypeRegular), nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

func TestEncodeOversize(t *testing.T) {
	big := make([]byte, MaxMessageSize)
	if _, err := Encode(hdr(TypeRegular), &Regular{Payload: big}); !errors.Is(err, ErrOversize) {
		t.Errorf("err = %v, want ErrOversize", err)
	}
}

func TestHeaderSizeConstant(t *testing.T) {
	buf, err := Encode(hdr(TypeHeartbeat), &Heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize {
		t.Errorf("Heartbeat encoding = %d bytes, want exactly HeaderSize %d", len(buf), HeaderSize)
	}
}

func TestMsgTypeTable(t *testing.T) {
	// Paper Figure 3, type-level columns.
	cases := []struct {
		t        MsgType
		reliable bool
		total    bool
	}{
		{TypeRegular, true, true},
		{TypeRetransmitRequest, false, false},
		{TypeHeartbeat, false, false},
		{TypeConnectRequest, false, false},
		{TypeConnect, true, true},
		{TypeAddProcessor, true, true},
		{TypeRemoveProcessor, true, true},
		{TypeSuspect, true, false},
		{TypeMembership, true, false},
		{TypePacked, true, true},
		{TypeSeqData, true, true},
		{TypeSeqAssign, true, false},
	}
	for _, c := range cases {
		if c.t.Reliable() != c.reliable {
			t.Errorf("%v.Reliable() = %v, want %v", c.t, c.t.Reliable(), c.reliable)
		}
		if c.t.TotallyOrdered() != c.total {
			t.Errorf("%v.TotallyOrdered() = %v, want %v", c.t, c.t.TotallyOrdered(), c.total)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if TypeRegular.String() != "Regular" || TypeMembership.String() != "Membership" {
		t.Error("MsgType.String basic cases")
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Errorf("unknown type String = %q", MsgType(99).String())
	}
	if MsgType(99).Valid() || TypeInvalid.Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestSeqVector(t *testing.T) {
	v := SeqVector{{1, 10}, {2, 20}}
	if s, ok := v.Get(2); !ok || s != 20 {
		t.Errorf("Get(2) = %v,%v", s, ok)
	}
	if _, ok := v.Get(3); ok {
		t.Error("Get(3) found phantom entry")
	}
	c := v.Clone()
	c[0].Seq = 99
	if v[0].Seq == 99 {
		t.Error("Clone shares storage")
	}
}

func TestMulticastAddr(t *testing.T) {
	a := MulticastAddr{IP: [4]byte{239, 0, 0, 1}, Port: 7000}
	if a.String() != "239.0.0.1:7000" {
		t.Errorf("String = %q", a.String())
	}
	if a.IsZero() {
		t.Error("non-zero addr reported zero")
	}
	if !(MulticastAddr{}).IsZero() {
		t.Error("zero addr not reported zero")
	}
}

func TestRoundTripRegularProperty(t *testing.T) {
	f := func(payload []byte, src, grp uint32, seq uint32, ts, ack uint64, reqNum uint64, little bool) bool {
		if len(payload) > 32*1024 {
			payload = payload[:32*1024]
		}
		h := Header{
			LittleEndian: little,
			Source:       ids.ProcessorID(src),
			DestGroup:    ids.GroupID(grp),
			Seq:          ids.SeqNum(seq),
			MsgTS:        ids.Timestamp(ts),
			AckTS:        ids.Timestamp(ack),
		}
		body := &Regular{RequestNum: ids.RequestNum(reqNum), Payload: payload}
		buf, err := Encode(h, body)
		if err != nil {
			return false
		}
		m, err := Decode(buf)
		if err != nil {
			return false
		}
		got := m.Body.(*Regular)
		return bytes.Equal(got.Payload, payload) &&
			got.RequestNum == body.RequestNum &&
			m.Header.Source == h.Source && m.Header.Seq == h.Seq &&
			m.Header.MsgTS == h.MsgTS && m.Header.AckTS == h.AckTS
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsOnFuzzProperty(t *testing.T) {
	// Property: Decode returns an error or a message, never panics, for
	// arbitrary byte soup — including soup that starts with valid magic.
	f := func(raw []byte, useMagic bool) bool {
		b := raw
		if useMagic && len(b) >= 8 {
			copy(b[0:4], Magic[:])
			b[4], b[5] = VersionMajor, VersionMinor
		}
		_, _ = Decode(b)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMutatedRoundTripProperty(t *testing.T) {
	// Property: flipping any single byte of a valid encoding either still
	// decodes (flag/payload bytes) or produces an error — never a panic.
	body := &MembershipMsg{
		MembershipTS:      ids.MakeTimestamp(80, 1),
		CurrentMembership: ids.NewMembership(1, 2, 3),
		CurrentSeqs:       SeqVector{{1, 1}, {2, 2}, {3, 3}},
		NewMembership:     ids.NewMembership(1, 3),
	}
	buf, err := Encode(hdr(TypeMembership), body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		for _, x := range []byte{0x01, 0xff} {
			mut := append([]byte(nil), buf...)
			mut[i] ^= x
			_, _ = Decode(mut)
		}
	}
}

func TestVersionByte(t *testing.T) {
	// Every frame carries the one version, whatever its type, and a frame
	// of any other minor version is refused.
	for _, body := range allBodies() {
		buf, err := Encode(hdr(body.Type()), body)
		if err != nil {
			t.Fatal(err)
		}
		if buf[4] != VersionMajor || buf[5] != VersionMinor {
			t.Errorf("%v: version bytes %d.%d, want %d.%d", body.Type(), buf[4], buf[5], VersionMajor, VersionMinor)
		}
		for minor := 0; minor < 256; minor++ {
			if minor == VersionMinor {
				continue
			}
			mut := append([]byte(nil), buf...)
			mut[5] = byte(minor)
			if _, err := Decode(mut); !errors.Is(err, ErrBadVersion) {
				t.Errorf("%v as 1.%d: err = %v, want ErrBadVersion", body.Type(), minor, err)
			}
		}
	}
}

func TestPackedRejectedAsVersion10(t *testing.T) {
	packed := &Packed{Entries: []PackedEntry{{Seq: 1, TS: 5, Payload: []byte("x")}}}
	buf, err := Encode(hdr(TypePacked), packed)
	if err != nil {
		t.Fatal(err)
	}
	buf[5] = 0 // forge a 1.0 frame, which had no Packed type
	if _, err := Decode(buf); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestMembershipRejectedBelowLineageVersion(t *testing.T) {
	body := &MembershipMsg{
		MembershipTS:      ids.MakeTimestamp(80, 1),
		CurrentMembership: ids.NewMembership(1, 2),
		NewMembership:     ids.NewMembership(1),
	}
	buf, err := Encode(hdr(TypeMembership), body)
	if err != nil {
		t.Fatal(err)
	}
	for _, minor := range []byte{0, 1} {
		mut := append([]byte(nil), buf...)
		mut[5] = minor // forge a pre-1.2 frame, whose Membership had no view lineage
		if _, err := Decode(mut); !errors.Is(err, ErrBadVersion) {
			t.Errorf("minor %d: err = %v, want ErrBadVersion", minor, err)
		}
	}
}

func TestDecoderReuseAndClone(t *testing.T) {
	// A Decoder's scratch bodies are reused across calls: the message from
	// one Decode is invalidated by the next unless the caller clones.
	var d Decoder
	h := hdr(TypeRegular)
	buf1, err := Encode(h, &Regular{RequestNum: 1, Payload: []byte("one")})
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := Encode(h, &Regular{RequestNum: 2, Payload: []byte("two!")})
	if err != nil {
		t.Fatal(err)
	}

	m1, err := d.Decode(buf1)
	if err != nil {
		t.Fatal(err)
	}
	kept := m1
	kept.Body = CloneBody(m1.Body)

	m2, err := d.Decode(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Body != m2.Body {
		t.Error("Decoder did not reuse the Regular scratch body")
	}
	r1, r2 := kept.Body.(*Regular), m2.Body.(*Regular)
	if r1.RequestNum != 1 || string(r1.Payload) != "one" {
		t.Errorf("cloned body clobbered by later decode: %+v", r1)
	}
	if r2.RequestNum != 2 || string(r2.Payload) != "two!" {
		t.Errorf("second decode wrong: %+v", r2)
	}

	// Payloads alias the input buffer — the documented zero-copy contract.
	if &r2.Payload[0] != &buf2[len(buf2)-4] {
		t.Error("decoded payload does not alias the input buffer")
	}
}

func TestDecoderPackedReuse(t *testing.T) {
	var d Decoder
	mk := func(payloads ...string) []byte {
		p := &Packed{}
		for i, s := range payloads {
			p.Entries = append(p.Entries, PackedEntry{Seq: ids.SeqNum(i + 1), TS: ids.Timestamp(i + 1), Payload: []byte(s)})
		}
		buf, err := Encode(hdr(TypePacked), p)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	buf1 := mk("aa", "bb", "cc")
	buf2 := mk("dd")

	m1, err := d.Decode(buf1)
	if err != nil {
		t.Fatal(err)
	}
	p1 := m1.Body.(*Packed)
	if len(p1.Entries) != 3 || string(p1.Entries[2].Payload) != "cc" {
		t.Fatalf("first packed decode: %+v", p1)
	}
	first := &p1.Entries[0]

	m2, err := d.Decode(buf2)
	if err != nil {
		t.Fatal(err)
	}
	p2 := m2.Body.(*Packed)
	if len(p2.Entries) != 1 || string(p2.Entries[0].Payload) != "dd" {
		t.Fatalf("second packed decode: %+v", p2)
	}
	if &p2.Entries[0] != first {
		t.Error("Decoder did not reuse the packed entry scratch slice")
	}
}

func TestCloneBodyIndependence(t *testing.T) {
	p := &Packed{Entries: []PackedEntry{{Seq: 1, Payload: []byte("x")}}}
	c := CloneBody(p).(*Packed)
	p.Entries[0].Seq = 99
	if c.Entries[0].Seq != 1 {
		t.Error("CloneBody(Packed) shares the entries slice")
	}
	r := &Regular{RequestNum: 5, Payload: []byte("y")}
	cr := CloneBody(r).(*Regular)
	r.RequestNum = 6
	if cr.RequestNum != 5 {
		t.Error("CloneBody(Regular) not a copy")
	}
}

func BenchmarkEncodeRegular1K(b *testing.B) {
	payload := make([]byte, 1024)
	h := hdr(TypeRegular)
	body := &Regular{Payload: payload}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(h, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRegular1K(b *testing.B) {
	payload := make([]byte, 1024)
	buf, err := Encode(hdr(TypeRegular), &Regular{Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
