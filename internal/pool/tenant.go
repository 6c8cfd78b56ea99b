package pool

import "repro/internal/bias"

// TenantBias is a decode's tenant assignment: the bias machine compiled
// from that tenant's phrase list. A nil *TenantBias is the tenantless path —
// plain two-layer search, byte-identical to a pool that has never seen a
// tenant.
type TenantBias struct {
	// Machine is installed on every worker the decode uses
	// (decoder.SetBias), turning the search into the three-way
	// AM ∘ LM ∘ Bias composition. nil decodes two-layer.
	Machine *bias.Machine
}
