// Merkle batching for the tamper-evident pipeline. Every group commit
// hashes its records into leaves and summarizes them as one Merkle
// root, so a sealed segment can later prove that a single record is
// included without rehashing the whole log — the proof is the
// logarithmic path of sibling hashes from the leaf to the batch root.
//
// Domain separation: leaf hashes, interior nodes and chain links use
// distinct one-byte prefixes (0x00, 0x01, 0x02), so a record's bytes
// can never be confused with an interior node (the classic
// second-preimage construction against naive Merkle trees).

package audit

import (
	"crypto/sha256"
	"encoding/hex"
)

type digest = [sha256.Size]byte

// leafHash hashes one committed JSONL line (without the trailing
// newline) into the tree's leaf domain. The pipeline's group commit
// does not call this — it renders the 0x00 prefix straight into its
// line buffer and hashes the slice in place — but the result is the
// same digest over the same bytes. A line of the usual size is
// prefixed on the stack, so verifying a segment does not allocate a
// copy of every record.
func leafHash(line []byte) digest {
	var stack [512]byte
	return sha256.Sum256(append(append(stack[:0], 0x00), line...))
}

// nodeHash combines two child digests into an interior node.
func nodeHash(left, right digest) digest {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = 0x01
	copy(buf[1:], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// chainHash links the running hash chain forward over one batch's
// Merkle root.
func chainHash(prev, leaf digest) digest {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = 0x02
	copy(buf[1:], prev[:])
	copy(buf[1+sha256.Size:], leaf[:])
	return sha256.Sum256(buf[:])
}

// merkleRoot computes the root over the given leaves. An odd node at
// any level is promoted unchanged (no duplication), which keeps proofs
// minimal: a promoted node's proof simply has no step at that level.
// merkleRoot of a single leaf is the leaf itself; callers never pass an
// empty slice (a group commit is skipped when the batch is empty).
// The fold happens in place — leaves is consumed — so the per-commit
// hot path allocates nothing. (Writing level[n] is safe: n <= i and
// nodeHash takes its operands by value.)
func merkleRoot(leaves []digest) digest {
	level := leaves
	for len(level) > 1 {
		n := 0
		for i := 0; i+1 < len(level); i += 2 {
			level[n] = nodeHash(level[i], level[i+1])
			n++
		}
		if len(level)%2 == 1 {
			level[n] = level[len(level)-1]
			n++
		}
		level = level[:n]
	}
	return level[0]
}

// ProofStep is one level of a Merkle inclusion proof: the sibling
// digest to combine with, and which side it sits on.
type ProofStep struct {
	// Sibling is the hex-encoded sibling digest at this level.
	Sibling string `json:"sibling"`
	// Left reports whether the sibling is the left operand of the
	// combining hash.
	Left bool `json:"left"`
}

// merkleProof returns the inclusion proof for leaves[i]: the sibling
// path from the leaf up to (but excluding) the root.
func merkleProof(leaves []digest, i int) []ProofStep {
	var steps []ProofStep
	level := leaves
	idx := i
	for len(level) > 1 {
		if sib := idx ^ 1; sib < len(level) {
			steps = append(steps, ProofStep{
				Sibling: hex.EncodeToString(level[sib][:]),
				Left:    sib < idx,
			})
		}
		next := make([]digest, 0, (len(level)+1)/2)
		for j := 0; j+1 < len(level); j += 2 {
			next = append(next, nodeHash(level[j], level[j+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		idx /= 2
	}
	return steps
}

// merkleVerify replays a proof from the leaf and returns the root it
// arrives at. Steps with malformed sibling hex fail closed by yielding
// a root that cannot match anything.
func merkleVerify(leaf digest, steps []ProofStep) digest {
	cur := leaf
	for _, s := range steps {
		raw, err := hex.DecodeString(s.Sibling)
		if err != nil || len(raw) != sha256.Size {
			return digest{}
		}
		var sib digest
		copy(sib[:], raw)
		if s.Left {
			cur = nodeHash(sib, cur)
		} else {
			cur = nodeHash(cur, sib)
		}
	}
	return cur
}
