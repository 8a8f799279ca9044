package pgmp

import (
	"testing"

	"ftmp/internal/ids"
	"ftmp/internal/wire"
)

const (
	self  = ids.ProcessorID(1)
	gid   = ids.GroupID(10)
	msSec = int64(1_000_000_000)
)

func cfg() Config {
	return Config{SuspectTimeout: 100, ProposalResend: 50, AddResend: 50}
}

func newGroup(members ...ids.ProcessorID) *Group {
	g := NewGroup(self, gid, cfg())
	g.Install(ids.NewMembership(members...), ids.NilTimestamp, 0)
	return g
}

func seqsOf(pairs ...any) wire.SeqVector {
	var v wire.SeqVector
	for i := 0; i < len(pairs); i += 2 {
		v = append(v, wire.SeqEntry{
			Proc: ids.ProcessorID(pairs[i].(int)),
			Seq:  ids.SeqNum(pairs[i+1].(int)),
		})
	}
	return v
}

func TestDueSuspicionsAfterTimeout(t *testing.T) {
	g := newGroup(1, 2, 3)
	g.Heard(2, 50)
	// At t=120: member 3 silent since 0 (>100), member 2 heard at 50.
	due := g.DueSuspicions(120)
	if !due.Equal(ids.NewMembership(3)) {
		t.Fatalf("DueSuspicions = %v, want {3}", due)
	}
	// Marked self-suspected only after RecordSuspicion of own Suspect.
	g.RecordSuspicion(self, due)
	if got := g.DueSuspicions(121); got != nil {
		t.Errorf("re-suspected: %v", got)
	}
	// Member 2 eventually times out too.
	due = g.DueSuspicions(200)
	if !due.Equal(ids.NewMembership(2)) {
		t.Errorf("DueSuspicions(200) = %v", due)
	}
}

func TestSelfNeverSuspected(t *testing.T) {
	g := newGroup(1, 2)
	due := g.DueSuspicions(1 << 40)
	if due.Contains(self) {
		t.Error("suspected self")
	}
}

func TestConvictionByMajority(t *testing.T) {
	g := newGroup(1, 2, 3, 4, 5)
	// Nobody convicted by a single suspicion: voters = 5 minus the
	// suspected member... suspicion from 2 of member 5.
	if got := g.RecordSuspicion(2, ids.NewMembership(5)); got != nil {
		t.Fatalf("convicted on one vote: %v", got)
	}
	if got := g.RecordSuspicion(3, ids.NewMembership(5)); got != nil {
		t.Fatalf("convicted on two votes: %v", got)
	}
	// Third vote: self suspects 5 too, so voters = {1,2,3,4}, threshold 3.
	got := g.RecordSuspicion(self, ids.NewMembership(5))
	if !got.Equal(ids.NewMembership(5)) {
		t.Fatalf("conviction missing: %v (convicted=%v)", got, g.Convicted())
	}
	if !g.Convicted().Equal(ids.NewMembership(5)) {
		t.Errorf("Convicted = %v", g.Convicted())
	}
	// Conviction is monotone: repeated votes don't re-convict.
	if got := g.RecordSuspicion(4, ids.NewMembership(5)); got != nil {
		t.Errorf("re-convicted: %v", got)
	}
}

func TestTwoNodeConviction(t *testing.T) {
	// n=2: once self suspects the peer, voters = {self}, threshold 1.
	g := newGroup(1, 2)
	got := g.RecordSuspicion(self, ids.NewMembership(2))
	if !got.Equal(ids.NewMembership(2)) {
		t.Fatalf("two-node conviction failed: %v", got)
	}
}

func TestSuspicionFromNonMemberIgnored(t *testing.T) {
	g := newGroup(1, 2)
	if got := g.RecordSuspicion(ids.ProcessorID(9), ids.NewMembership(2)); got != nil {
		t.Errorf("non-member suspicion convicted: %v", got)
	}
	if got := g.RecordSuspicion(2, ids.NewMembership(9)); got != nil {
		t.Errorf("suspicion of non-member convicted: %v", got)
	}
}

func TestRecoveryRoundLifecycle(t *testing.T) {
	g := newGroup(1, 2, 3)
	// Convict 3 (self + 2 suspect it; voters {1,2}, threshold 2).
	g.RecordSuspicion(self, ids.NewMembership(3))
	newly := g.RecordSuspicion(2, ids.NewMembership(3))
	if !newly.Equal(ids.NewMembership(3)) {
		t.Fatalf("conviction failed: %v", newly)
	}
	if !g.NeedRound() {
		t.Fatal("NeedRound = false after conviction")
	}
	prop := g.StartRound(seqsOf(1, 5, 2, 7, 3, 2), 1000)
	if !prop.NewMembership.Equal(ids.NewMembership(1, 2)) {
		t.Fatalf("proposal membership = %v", prop.NewMembership)
	}
	if g.NeedRound() {
		t.Error("NeedRound = true right after StartRound")
	}
	if !g.InRecovery() {
		t.Error("InRecovery = false")
	}

	// Not ready: no proposal from 2 yet.
	have := map[ids.ProcessorID]ids.SeqNum{1: 5, 2: 7, 3: 2}
	contig := func(p ids.ProcessorID) ids.SeqNum { return have[p] }
	if g.ReadyToInstall(contig) {
		t.Fatal("ready without peer proposal")
	}

	// Peer 2 proposes the same membership but cites a higher seq for 3.
	g.OnProposal(2, &wire.MembershipMsg{
		CurrentMembership: ids.NewMembership(1, 2, 3),
		CurrentSeqs:       seqsOf(1, 5, 2, 7, 3, 4),
		NewMembership:     ids.NewMembership(1, 2),
	})
	if g.ReadyToInstall(contig) {
		t.Fatal("ready while missing messages 3,4 from processor 3")
	}
	needs := g.RecoveryNeeds(contig)
	if len(needs) != 1 || needs[0].Proc != 3 || needs[0].StartSeq != 3 || needs[0].StopSeq != 4 {
		t.Fatalf("RecoveryNeeds = %+v", needs)
	}
	// Recover them.
	have[3] = 4
	if !g.ReadyToInstall(contig) {
		t.Fatal("not ready after recovery")
	}
	newM, maxSeqs := g.RoundResult()
	if !newM.Equal(ids.NewMembership(1, 2)) || maxSeqs[3] != 4 {
		t.Fatalf("RoundResult = %v, %v", newM, maxSeqs)
	}
	g.Install(newM, ids.MakeTimestamp(99, 1), 2000)
	if g.InRecovery() || g.Convicted() != nil {
		t.Error("round state not cleared by Install")
	}
	if !g.Members().Equal(ids.NewMembership(1, 2)) {
		t.Errorf("Members = %v", g.Members())
	}
}

func TestProposalImpliesSuspicion(t *testing.T) {
	g := newGroup(1, 2, 3)
	// Self already suspects 3; a proposal from 2 excluding 3 is 2's vote.
	g.RecordSuspicion(self, ids.NewMembership(3))
	newly := g.OnProposal(2, &wire.MembershipMsg{
		CurrentMembership: ids.NewMembership(1, 2, 3),
		CurrentSeqs:       seqsOf(1, 0, 2, 0, 3, 0),
		NewMembership:     ids.NewMembership(1, 2),
	})
	if !newly.Equal(ids.NewMembership(3)) {
		t.Fatalf("implied suspicion did not convict: %v", newly)
	}
}

func TestRoundRestartOnFurtherConviction(t *testing.T) {
	g := newGroup(1, 2, 3, 4)
	// Convict 4: self+2 suspect (voters {1,2,3}, threshold 2).
	g.RecordSuspicion(self, ids.NewMembership(4))
	g.RecordSuspicion(2, ids.NewMembership(4))
	g.StartRound(seqsOf(1, 0, 2, 0, 3, 0, 4, 0), 0)
	// Now 3 crashes as well during recovery.
	g.RecordSuspicion(self, ids.NewMembership(3))
	g.RecordSuspicion(2, ids.NewMembership(3))
	if !g.NeedRound() {
		t.Fatal("NeedRound = false after second conviction")
	}
	prop := g.StartRound(seqsOf(1, 0, 2, 0, 3, 0, 4, 0), 10)
	if !prop.NewMembership.Equal(ids.NewMembership(1, 2)) {
		t.Errorf("restarted proposal = %v", prop.NewMembership)
	}
}

func TestStaleProposalDifferentMembershipIgnoredForRound(t *testing.T) {
	g := newGroup(1, 2, 3)
	g.RecordSuspicion(self, ids.NewMembership(3))
	g.RecordSuspicion(2, ids.NewMembership(3))
	g.StartRound(seqsOf(1, 1, 2, 1, 3, 1), 0)
	// A proposal with a different target doesn't count toward this round.
	g.OnProposal(2, &wire.MembershipMsg{
		CurrentMembership: ids.NewMembership(1, 2, 3),
		CurrentSeqs:       seqsOf(1, 9, 2, 9, 3, 9),
		NewMembership:     ids.NewMembership(1),
	})
	contig := func(ids.ProcessorID) ids.SeqNum { return 9 }
	if g.ReadyToInstall(contig) {
		t.Error("mismatched proposal satisfied the round")
	}
}

func TestResendDue(t *testing.T) {
	g := newGroup(1, 2)
	g.RecordSuspicion(self, ids.NewMembership(2))
	g.StartRound(seqsOf(1, 0, 2, 0), 0)
	if g.ResendDue(49) {
		t.Error("resend before period")
	}
	if !g.ResendDue(50) {
		t.Error("resend not due at period")
	}
	if g.ResendDue(60) {
		t.Error("resend immediately again")
	}
	if !g.ResendDue(100) {
		t.Error("second resend not due")
	}
	g2 := newGroup(1, 2)
	if g2.ResendDue(1000) {
		t.Error("resend due with no round")
	}
}

func TestHeardClearsPendingAdd(t *testing.T) {
	g := newGroup(1, 2)
	g.NoteAddProposed(3, []byte("addmsg"), 0)
	if got := g.AddResendsDue(50); len(got) != 1 || string(got[0]) != "addmsg" {
		t.Fatalf("AddResendsDue = %v", got)
	}
	if got := g.AddResendsDue(60); got != nil {
		t.Error("resent before period elapsed")
	}
	// New member speaks: resend stops. (Heard also works for
	// not-yet-members.)
	g.Heard(3, 70)
	if got := g.AddResendsDue(1000); got != nil {
		t.Error("resend after member heard")
	}
}

func TestInstallPrunesState(t *testing.T) {
	g := newGroup(1, 2, 3)
	g.RecordSuspicion(2, ids.NewMembership(3))
	g.Install(ids.NewMembership(1, 2), ids.MakeTimestamp(5, 1), 100)
	if g.SuspectedOrConvicted(3) {
		t.Error("suspicion of departed member survived install")
	}
	if g.ViewTS() != ids.MakeTimestamp(5, 1) {
		t.Errorf("ViewTS = %v", g.ViewTS())
	}
	// viewTS never regresses.
	g.Install(ids.NewMembership(1, 2), ids.MakeTimestamp(3, 1), 200)
	if g.ViewTS() != ids.MakeTimestamp(5, 1) {
		t.Errorf("ViewTS regressed: %v", g.ViewTS())
	}
}

func TestSuspectedOrConvicted(t *testing.T) {
	g := newGroup(1, 2, 3)
	if g.SuspectedOrConvicted(2) {
		t.Error("fresh member flagged")
	}
	g.RecordSuspicion(3, ids.NewMembership(2))
	if !g.SuspectedOrConvicted(2) {
		t.Error("suspected member not flagged")
	}
}

func TestStatsCounts(t *testing.T) {
	g := newGroup(1, 2)
	g.DueSuspicions(1 << 40)
	g.RecordSuspicion(self, ids.NewMembership(2))
	g.StartRound(seqsOf(1, 0, 2, 0), 0)
	g.ResendDue(1 << 40)
	st := g.Stats()
	if st.SuspectsRaised != 1 || st.Convictions != 1 || st.RoundsStarted != 1 || st.ProposalResends != 1 || st.ViewsInstalled != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestStringer(t *testing.T) {
	if newGroup(1, 2).String() == "" {
		t.Error("empty String()")
	}
}

func TestProposalBeforeConvictionIsNotLost(t *testing.T) {
	// Regression: peers can convict, propose, install the new view and
	// go quiet before this processor has gathered enough suspicions to
	// start its own round. Their proposals must be stashed and replayed
	// when the round finally starts, or this processor waits forever.
	g := newGroup(1, 2, 3, 4)
	proposal := &wire.MembershipMsg{
		CurrentMembership: ids.NewMembership(1, 2, 3, 4),
		CurrentSeqs:       seqsOf(1, 5, 2, 5, 3, 5, 4, 9),
		NewMembership:     ids.NewMembership(1, 2, 3),
	}
	// Proposals from 2 and 3 arrive first; each is one implied
	// suspicion vote against 4, but conviction needs majority of the
	// unsuspected membership ({1,2,3,4}, threshold 3).
	if got := g.OnProposal(2, proposal); got != nil {
		t.Fatalf("convicted too early: %v", got)
	}
	g.OnProposal(3, proposal)
	// Now this processor's own timeout fires: conviction and round.
	newly := g.RecordSuspicion(1, ids.NewMembership(4))
	if !newly.Equal(ids.NewMembership(4)) {
		t.Fatalf("conviction = %v", newly)
	}
	if !g.NeedRound() {
		t.Fatal("no round needed")
	}
	g.StartRound(seqsOf(1, 5, 2, 5, 3, 5, 4, 7), 0)
	// The stashed proposals must already count, including their higher
	// cited sequence number for processor 4.
	contig := func(p ids.ProcessorID) ids.SeqNum {
		if p == 4 {
			return 9
		}
		return 5
	}
	if !g.ReadyToInstall(contig) {
		t.Fatal("stashed proposals were lost (round cannot complete)")
	}
	_, maxSeqs := g.RoundResult()
	if maxSeqs[4] != 9 {
		t.Errorf("stashed sequence vector not merged: maxSeqs[4] = %d", maxSeqs[4])
	}
}

func TestStashClearedOnInstall(t *testing.T) {
	g := newGroup(1, 2, 3)
	stale := &wire.MembershipMsg{
		CurrentMembership: ids.NewMembership(1, 2, 3),
		CurrentSeqs:       seqsOf(1, 0, 2, 0, 3, 0),
		NewMembership:     ids.NewMembership(1, 2),
	}
	g.OnProposal(2, stale)
	g.Install(ids.NewMembership(1, 2, 3), ids.MakeTimestamp(9, 1), 0)
	// A new round for a different target must not absorb the stale
	// agreement.
	g.RecordSuspicion(1, ids.NewMembership(2))
	g.RecordSuspicion(3, ids.NewMembership(2))
	g.StartRound(seqsOf(1, 0, 2, 0, 3, 0), 0)
	contig := func(ids.ProcessorID) ids.SeqNum { return 0 }
	// Round target is {1,3}; member 3 has not proposed yet.
	if g.ReadyToInstall(contig) {
		t.Fatal("stale stash satisfied a new round")
	}
}
