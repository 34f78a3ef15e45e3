// Statement-level undo. Every table mutator logs, immediately after
// each physical sub-step succeeds, a logical action that exactly
// reverses it (un-insert this RID, restore these row bytes, revert this
// index entry). When a statement fails partway, the executor replays
// the log in reverse — still holding the table write lock — so
// INSERT/UPDATE/DELETE are all-or-nothing even though the heap and the
// B+tree indexes are mutated in separate steps.
package catalog

import (
	"errors"
	"fmt"
)

// UndoLog accumulates the logical undo actions of one DML statement.
// The zero value is ready to use. A nil *UndoLog is valid and records
// nothing (for callers that do their own cleanup).
type UndoLog struct {
	actions []func() error
}

// push appends an undo action. Safe on a nil log.
func (u *UndoLog) push(fn func() error) {
	if u != nil {
		u.actions = append(u.actions, fn)
	}
}

// Len returns the number of recorded actions.
func (u *UndoLog) Len() int {
	if u == nil {
		return 0
	}
	return len(u.actions)
}

// Mark returns the current position; RollbackTo(Mark()) later undoes
// exactly the actions recorded in between. Statement boundaries inside
// a transaction, and SAVEPOINTs, are marks into one shared log.
func (u *UndoLog) Mark() int { return u.Len() }

// Rollback replays every recorded action in reverse (LIFO) order and
// clears the log. See RollbackTo for the failure contract.
func (u *UndoLog) Rollback() error {
	_, err := u.RollbackTo(0)
	return err
}

// RollbackTo replays the actions recorded after mark in reverse (LIFO)
// order and truncates the log back to mark. LIFO matters: it
// guarantees, for example, that a page slot is free again before the
// record it held is restored. All actions in the range are attempted
// even if one fails; the number of failed steps is returned exactly
// (so callers can account a failed rollback as failed, not as a clean
// one), failures are joined into the returned error, and a non-nil
// return means the table may be inconsistent (CheckInvariants reports
// how).
func (u *UndoLog) RollbackTo(mark int) (failed int, err error) {
	if u == nil {
		return 0, nil
	}
	if mark < 0 {
		mark = 0
	}
	var errs []error
	for i := len(u.actions) - 1; i >= mark; i-- {
		if aerr := u.actions[i](); aerr != nil {
			failed++
			errs = append(errs, aerr)
		}
	}
	u.actions = u.actions[:mark]
	if len(errs) > 0 {
		return failed, fmt.Errorf("catalog: rollback failed: %w", errors.Join(errs...))
	}
	return 0, nil
}

// TruncateTo drops the actions recorded after mark without running
// them (RELEASE-style; also used when a savepoint is superseded).
func (u *UndoLog) TruncateTo(mark int) {
	if u != nil && mark >= 0 && mark <= len(u.actions) {
		u.actions = u.actions[:mark]
	}
}

// Discard drops the recorded actions without running them (the
// statement committed). The log keeps its capacity, not the actions: a
// session reuses it for its next transaction.
func (u *UndoLog) Discard() {
	if u != nil {
		clear(u.actions)
		u.actions = u.actions[:0]
	}
}
