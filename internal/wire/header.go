// Package wire implements the FTMP wire format: the fixed message header
// of paper section 3.2 and the bodies of the nine FTMP message types of
// sections 5-7. Every field the paper lists is present; multi-byte fields
// are encoded in the byte order declared by the header's byte-order flag,
// exactly as GIOP/CDR does for the encapsulated payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ftmp/internal/ids"
)

// Magic is the four-byte magic at the start of every FTMP message
// ("magic is set to FTMP", paper section 3.2).
var Magic = [4]byte{'F', 'T', 'M', 'P'}

// Protocol version. The paper sets "FTMP version ... to 1.0"; this
// implementation speaks 1.3: 1.1 added the Packed container, 1.2 the view
// lineage on Membership frames, 1.3 the SeqData and SeqAssign frames of
// leader-assigned ordering. Every frame carries VersionMinor, and a
// decoder accepts exactly that minor: a body of another minor version
// could decode as garbage.
const (
	VersionMajor = 1
	VersionMinor = 3
)

// HeaderSize is the encoded size of the FTMP header in bytes.
const HeaderSize = 40

// MaxMessageSize bounds the total encoded size of one FTMP message. It
// matches a conservative UDP datagram budget; GIOP payloads larger than
// this must use GIOP Fragment messages.
const MaxMessageSize = 64 * 1024

// MsgType enumerates the FTMP message types (paper Figure 3).
type MsgType uint8

const (
	// TypeInvalid is the zero value; it never appears on the wire.
	TypeInvalid MsgType = iota
	// TypeRegular carries an encapsulated GIOP message. Reliable,
	// source-ordered and totally ordered.
	TypeRegular
	// TypeRetransmitRequest is a negative acknowledgment naming a block
	// of missing messages. Unreliable, unordered.
	TypeRetransmitRequest
	// TypeHeartbeat is the null message transmitted when a processor has
	// been idle, carrying its current sequence number and timestamps.
	// Unreliable, source-ordered delivery to ROMP.
	TypeHeartbeat
	// TypeConnectRequest asks a server object group for a connection.
	// Unreliable; retried by the client infrastructure.
	TypeConnectRequest
	// TypeConnect establishes (or re-addresses) a logical connection.
	// Reliable and totally ordered, except to the client group.
	TypeConnect
	// TypeAddProcessor adds a non-faulty processor to a processor group.
	// Reliable and totally ordered, except to the new member.
	TypeAddProcessor
	// TypeRemoveProcessor removes a non-faulty processor from a group.
	// Reliable and totally ordered.
	TypeRemoveProcessor
	// TypeSuspect reports processors suspected of being faulty.
	// Reliable, source-ordered, not totally ordered.
	TypeSuspect
	// TypeMembership proposes a new membership excluding convicted
	// processors. Reliable, source-ordered, not totally ordered.
	TypeMembership
	// TypePacked is a container carrying several small Regular messages
	// in one datagram (FTMP 1.1). Each entry keeps its own sequence
	// number and timestamp, so reliability and ordering are those of the
	// Regular messages inside; the container itself is never
	// retransmitted (lost entries are repaired individually).
	TypePacked
	// TypeSeqData is a Regular message sent by the current view's leader
	// in leader ordering mode (FTMP 1.3), with the leader's sequencing
	// run (epoch, dense delivery sequence) piggybacked on the data frame.
	// Reliable, source-ordered and totally ordered.
	TypeSeqData
	// TypeSeqAssign carries a sequencing run on its own, used when the
	// leader has assignments to publish but no data of its own to send
	// (FTMP 1.3). Reliable, source-ordered, not totally ordered.
	TypeSeqAssign

	numTypes
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeRegular:
		return "Regular"
	case TypeRetransmitRequest:
		return "RetransmitRequest"
	case TypeHeartbeat:
		return "Heartbeat"
	case TypeConnectRequest:
		return "ConnectRequest"
	case TypeConnect:
		return "Connect"
	case TypeAddProcessor:
		return "AddProcessor"
	case TypeRemoveProcessor:
		return "RemoveProcessor"
	case TypeSuspect:
		return "Suspect"
	case TypeMembership:
		return "Membership"
	case TypePacked:
		return "Packed"
	case TypeSeqData:
		return "SeqData"
	case TypeSeqAssign:
		return "SeqAssign"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Valid reports whether t is a defined message type.
func (t MsgType) Valid() bool { return t > TypeInvalid && t < numTypes }

// Reliable reports whether messages of type t are delivered reliably
// (paper Figure 3). The two per-destination exceptions (Connect to the
// client group, AddProcessor to the new member) are a property of the
// receiver's role, not of the type, and are handled in RMP.
func (t MsgType) Reliable() bool {
	switch t {
	case TypeRegular, TypeConnect, TypeAddProcessor, TypeRemoveProcessor, TypeSuspect, TypeMembership:
		return true
	case TypePacked:
		// The entries are Regular messages; each is delivered reliably.
		return true
	case TypeSeqData, TypeSeqAssign:
		// Sequencing runs must survive loss: followers cannot deliver
		// without them, and RMP's gap repair is what makes a lost run a
		// retransmission instead of a stall.
		return true
	default:
		return false
	}
}

// TotallyOrdered reports whether messages of type t are delivered in
// total order (paper Figure 3).
func (t MsgType) TotallyOrdered() bool {
	switch t {
	case TypeRegular, TypeConnect, TypeAddProcessor, TypeRemoveProcessor:
		return true
	case TypePacked:
		// As the entries are: Regular messages are totally ordered.
		return true
	case TypeSeqData:
		// The data half is a Regular message; the piggybacked run is
		// applied on RMP (source-ordered) delivery like SeqAssign.
		return true
	default:
		return false
	}
}

// Header is the decoded FTMP message header (paper section 3.2).
type Header struct {
	// LittleEndian is the byte-order flag: true for little endian.
	LittleEndian bool
	// Retransmission is false for the first transmission of a message
	// and true for all subsequent retransmissions.
	Retransmission bool
	// Type is the FTMP message type.
	Type MsgType
	// Size is the total number of bytes, including header and payload.
	Size uint32
	// Source identifies the processor that originated the message.
	Source ids.ProcessorID
	// DestGroup identifies the processor group the message is multicast
	// to (NilGroup for ConnectRequest).
	DestGroup ids.GroupID
	// Seq is incremented each time a message that must be reliably
	// delivered is transmitted. Unreliable types carry the sequence
	// number of the sender's preceding reliable message.
	Seq ids.SeqNum
	// MsgTS is the Lamport message timestamp used for ordering.
	MsgTS ids.Timestamp
	// AckTS acknowledges that the source has received every message,
	// from every member of the destination group, with timestamp <= AckTS.
	AckTS ids.Timestamp
}

// Codec errors.
var (
	ErrShort      = errors.New("wire: buffer too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrBadSize    = errors.New("wire: size field disagrees with buffer")
	ErrTrailing   = errors.New("wire: trailing bytes after message body")
	ErrOversize   = errors.New("wire: message exceeds maximum size")
)

// order returns the binary byte order declared by the header.
func (h *Header) order() binary.ByteOrder {
	if h.LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// encode writes the header into buf, which must be at least HeaderSize
// bytes. The Size field must already be set.
func (h *Header) encode(buf []byte) {
	copy(buf[0:4], Magic[:])
	buf[4] = VersionMajor
	buf[5] = VersionMinor
	var flags byte
	if h.LittleEndian {
		flags |= 0x01
	}
	if h.Retransmission {
		flags |= 0x02
	}
	buf[6] = flags
	buf[7] = byte(h.Type)
	bo := h.order()
	bo.PutUint32(buf[8:12], h.Size)
	bo.PutUint32(buf[12:16], uint32(h.Source))
	bo.PutUint32(buf[16:20], uint32(h.DestGroup))
	bo.PutUint32(buf[20:24], uint32(h.Seq))
	bo.PutUint64(buf[24:32], uint64(h.MsgTS))
	bo.PutUint64(buf[32:40], uint64(h.AckTS))
}

// DecodeHeader parses the FTMP header at the start of buf.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, ErrShort
	}
	if [4]byte(buf[0:4]) != Magic {
		return h, ErrBadMagic
	}
	if buf[4] != VersionMajor || buf[5] != VersionMinor {
		return h, fmt.Errorf("%w: %d.%d", ErrBadVersion, buf[4], buf[5])
	}
	flags := buf[6]
	h.LittleEndian = flags&0x01 != 0
	h.Retransmission = flags&0x02 != 0
	h.Type = MsgType(buf[7])
	if !h.Type.Valid() {
		return h, fmt.Errorf("%w: %d", ErrBadType, buf[7])
	}
	bo := h.order()
	h.Size = bo.Uint32(buf[8:12])
	h.Source = ids.ProcessorID(bo.Uint32(buf[12:16]))
	h.DestGroup = ids.GroupID(bo.Uint32(buf[16:20]))
	h.Seq = ids.SeqNum(bo.Uint32(buf[20:24]))
	h.MsgTS = ids.Timestamp(bo.Uint64(buf[24:32]))
	h.AckTS = ids.Timestamp(bo.Uint64(buf[32:40]))
	if h.Size < HeaderSize {
		return h, ErrBadSize
	}
	if h.Size > MaxMessageSize {
		return h, ErrOversize
	}
	if int(h.Size) > len(buf) {
		return h, fmt.Errorf("%w: size %d > buffer %d", ErrBadSize, h.Size, len(buf))
	}
	return h, nil
}
