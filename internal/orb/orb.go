// Package orb is a minimal CORBA object request broker: an object
// adapter that dispatches GIOP Requests to registered servants, plus an
// IIOP (GIOP over TCP) client and server. It stands in for the
// commercial ORBs the paper's infrastructure intercepts (DESIGN.md
// section 5); the replicated, FTMP-carried invocation path lives in
// package ftcorba and reuses the same adapter.
package orb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ftmp/internal/giop"
)

// Exception is a CORBA exception surfaced to the client.
type Exception struct {
	// System distinguishes SYSTEM_EXCEPTION from USER_EXCEPTION replies.
	System bool
	// RepoID is the exception repository id (e.g. "IDL:omg.org/CORBA/
	// OBJECT_NOT_EXIST:1.0").
	RepoID string
}

// Error implements error.
func (e *Exception) Error() string {
	kind := "user"
	if e.System {
		kind = "system"
	}
	return fmt.Sprintf("corba %s exception: %s", kind, e.RepoID)
}

// Well-known system exceptions.
var (
	ExcObjectNotExist = &Exception{System: true, RepoID: "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"}
	ExcBadOperation   = &Exception{System: true, RepoID: "IDL:omg.org/CORBA/BAD_OPERATION:1.0"}
	ExcUnknown        = &Exception{System: true, RepoID: "IDL:omg.org/CORBA/UNKNOWN:1.0"}
)

// Servant implements an object: it receives the operation name and the
// CDR-encoded in-parameters and returns CDR-encoded results.
type Servant interface {
	Invoke(op string, args []byte) ([]byte, *Exception)
}

// ServantFunc adapts a function to Servant.
type ServantFunc func(op string, args []byte) ([]byte, *Exception)

// Invoke implements Servant.
func (f ServantFunc) Invoke(op string, args []byte) ([]byte, *Exception) {
	return f(op, args)
}

// Adapter is an object adapter: a table of servants keyed by object key.
// It is safe for concurrent use (the IIOP server dispatches from
// multiple connection goroutines).
type Adapter struct {
	mu       sync.RWMutex
	servants map[string]Servant
}

// NewAdapter returns an empty object adapter.
func NewAdapter() *Adapter {
	return &Adapter{servants: make(map[string]Servant)}
}

// Register binds a servant to an object key, replacing any previous
// binding.
func (a *Adapter) Register(objectKey string, s Servant) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.servants[objectKey] = s
}

// Unregister removes the binding for objectKey.
func (a *Adapter) Unregister(objectKey string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.servants, objectKey)
}

// Keys returns the registered object keys, sorted.
func (a *Adapter) Keys() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.servants))
	for k := range a.servants {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lookup returns the servant for key.
func (a *Adapter) lookup(key string) (Servant, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.servants[key]
	return s, ok
}

// Dispatch executes a GIOP Request against the adapter and builds the
// Reply. Oneway requests (ResponseExpected false) return nil.
func (a *Adapter) Dispatch(req *giop.Request) *giop.Reply {
	s, ok := a.lookup(string(req.ObjectKey))
	var reply giop.Reply
	reply.RequestID = req.RequestID
	switch {
	case !ok:
		reply.Status = giop.SystemException
		reply.Body = encodeException(ExcObjectNotExist)
	default:
		result, exc := s.Invoke(req.Operation, req.Body)
		if exc == nil {
			reply.Status = giop.NoException
			reply.Body = result
		} else if exc.System {
			reply.Status = giop.SystemException
			reply.Body = encodeException(exc)
		} else {
			reply.Status = giop.UserException
			reply.Body = encodeException(exc)
		}
	}
	if !req.ResponseExpected {
		return nil
	}
	return &reply
}

// Locate answers a LocateRequest against the adapter.
func (a *Adapter) Locate(req *giop.LocateRequest) *giop.LocateReply {
	_, ok := a.lookup(string(req.ObjectKey))
	status := giop.UnknownObject
	if ok {
		status = giop.ObjectHere
	}
	return &giop.LocateReply{RequestID: req.RequestID, Status: status}
}

// EncodeExceptionBody marshals an exception body: the repository id
// string followed by a minor code and completion status, as CORBA
// system exceptions are encoded. DecodeException inverts it.
func EncodeExceptionBody(exc *Exception) []byte { return encodeException(exc) }

// encodeException marshals an exception body: the repository id string
// followed by a minor code and completion status, as CORBA system
// exceptions are encoded.
func encodeException(exc *Exception) []byte {
	e := giop.NewEncoder(false)
	e.String(exc.RepoID)
	e.ULong(0) // minor
	e.ULong(0) // completion status: COMPLETED_YES
	return e.Bytes()
}

// DecodeException parses an exception body produced by encodeException.
func DecodeException(body []byte, system bool) *Exception {
	d := giop.NewDecoder(body, false)
	id := d.String()
	if d.Err() != nil {
		return ExcUnknown
	}
	return &Exception{System: system, RepoID: id}
}

// Errors returned by clients.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("orb: connection closed")
	// ErrRefused is returned when the peer answered MessageError instead
	// of replying: it will not serve the request (a gateway shedding
	// load does this); the connection stays usable.
	ErrRefused = errors.New("orb: peer refused the request (MessageError)")
	// ErrPeerClosed is returned when the peer sent CloseConnection; the
	// client is closed.
	ErrPeerClosed = errors.New("orb: peer closed the connection (CloseConnection)")
)
