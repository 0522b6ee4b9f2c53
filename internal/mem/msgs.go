package mem

import (
	"fmt"

	"gsi/internal/core"
)

// Msg is every message the memory system exchanges, as one pointer-free
// value: it is copied into the sender's outbox, into each mesh ring slot it
// passes through and into the receiving bank's input queue, and no ring holds
// anything for the collector to scan. Requests travel to an L2 bank
// (noc.PortL2); responses and forwards travel to a core (noc.PortCore). Kind
// says which fields are meaningful; a new message is a new MsgKind and, if it
// must, a new field here — never a second type on the mesh.
type Msg struct {
	// Addr is the line address, or for the two atomic kinds the address
	// operated on.
	Addr uint64
	// Old is the value an atomic replaced (AtomicResp).
	Old uint64
	// Op is the warp atomic an AtomicReq carries out, echoed in the
	// AtomicResp so the core can route the old value.
	Op AtomicOp
	// Core is the requesting core, or for OwnTransfer the new owner.
	Core int32
	Kind MsgKind
	// Where is the service point a ReadResp reports.
	Where core.DataWhere
	// Own is, on an AtomicReq, the request to register the requestor as
	// the line's owner after executing, so its subsequent atomics run
	// locally (the owned-atomics optimization of Sinclair et al., suggested
	// in the paper's section 6.1.4); on the AtomicResp, that the bank did.
	Own bool
}

// MsgKind names a message of the coherence protocol.
type MsgKind uint8

// The zero MsgKind is no message, so a Msg nobody filled in is rejected where
// it is delivered.
const (
	// ReadReq asks the home L2 bank for a line. The bank either answers
	// from its array, fetches from memory, or — when the line is owned by a
	// remote L1 under DeNovo — forwards the request to the owner.
	ReadReq MsgKind = iota + 1
	// ReadResp delivers a line to the requesting core. Where records the
	// service point for GSI's memory data stall sub-classification.
	ReadResp
	// WriteThrough carries a dirty line's data to the L2 (GPU coherence
	// store buffer flush). The bank acknowledges with WriteAck.
	WriteThrough
	// WriteAck confirms a WriteThrough has been applied at the L2.
	WriteAck
	// OwnReq registers the requesting core as owner of a line (DeNovo store
	// buffer flush). The bank answers OwnAck directly if the line is
	// unowned; otherwise it updates the directory, acks the new owner and
	// sends OwnTransfer to the previous one.
	OwnReq
	// OwnAck confirms ownership registration to the new owner.
	OwnAck
	// OwnTransfer tells the previous owner it has lost a line to Core; it
	// invalidates locally.
	OwnTransfer
	// FwdRead is sent by the L2 to a line's owner; the owner responds to
	// Core directly with ReadResp{Where: WhereRemoteL1}.
	FwdRead
	// WbOwned returns an owned line to the L2 on eviction: the bank
	// installs the data and clears the directory entry. Fire-and-forget.
	WbOwned
	// AtomicReq executes Op as a read-modify-write at the home L2 bank (the
	// simulated system performs all atomics at L2). Release ordering is
	// enforced at the core before the request is sent; acquire ordering is
	// applied at the core when the response arrives.
	AtomicReq
	// AtomicResp returns the old value to the issuing warp.
	AtomicResp
	// memFill is the event the memory controller posts to a bank's input
	// queue when a line arrives; it never crosses the mesh.
	memFill
)

var msgKindNames = [...]string{
	ReadReq: "ReadReq", ReadResp: "ReadResp", WriteThrough: "WriteThrough",
	WriteAck: "WriteAck", OwnReq: "OwnReq", OwnAck: "OwnAck",
	OwnTransfer: "OwnTransfer", FwdRead: "FwdRead", WbOwned: "WbOwned",
	AtomicReq: "AtomicReq", AtomicResp: "AtomicResp", memFill: "memFill",
}

// String names the kind; a value outside the protocol prints its number.
func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) && msgKindNames[k] != "" {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}
