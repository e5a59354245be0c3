/**
 * @file
 * Branch target buffer: tagged set-associative storage mapping branch
 * PCs to (target, branch type), an LruTable of BtbTarget. Used
 * directly by the EV8 front end, and as the backup predictor of the
 * trace cache's secondary path. For indirect branches the stored
 * target is the last observed one.
 */

#ifndef SFETCH_BPRED_BTB_HH
#define SFETCH_BPRED_BTB_HH

#include "bpred/predictor_tables.hh"
#include "isa/instruction.hh"

namespace sfetch
{

/** What the BTB holds for one branch. */
struct BtbTarget
{
    Addr target = kNoAddr;
    BranchType type = BranchType::None;

    BtbTarget() = default;
    BtbTarget(Addr t, BranchType ty) : target(t), type(ty) {}
};

using BtbConfig = LruTableConfig;
using Btb = LruTable<BtbTarget>;
using BtbEntry = Btb::Lookup;

} // namespace sfetch

#endif // SFETCH_BPRED_BTB_HH
