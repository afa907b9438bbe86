#include "decomp/native_count.h"

#include "decomp/weyl.h"

namespace tqan {
namespace decomp {

using device::GateSet;
using linalg::Mat4;

int
nativeCount(const Mat4 &u, GateSet gs)
{
    switch (gs) {
      case GateSet::Cnot:
      case GateSet::Cz:
        return cnotCount(u);
      case GateSet::ISwap:
        if (isLocalClass(u))
            return 0;
        if (isIswapClass(u))
            return 1;
        if (hasZeroCz(u))
            return 2;
        return 3;
      case GateSet::Syc:
        if (isLocalClass(u))
            return 0;
        if (isSycClass(u))
            return 1;
        if (hasZeroCz(u))
            return 2;
        return 3;
    }
    return 3;
}

int
nativeCountOp(const qcir::Op &op, GateSet gs)
{
    if (!op.isTwoQubit())
        throw std::invalid_argument("nativeCountOp: 1q op");
    // Native gates of the target set cost exactly one.
    switch (op.kind) {
      case qcir::OpKind::Cnot:
        if (gs == GateSet::Cnot)
            return 1;
        break;
      case qcir::OpKind::Cz:
        if (gs == GateSet::Cz)
            return 1;
        break;
      case qcir::OpKind::ISwap:
        if (gs == GateSet::ISwap)
            return 1;
        break;
      case qcir::OpKind::Syc:
        if (gs == GateSet::Syc)
            return 1;
        break;
      case qcir::OpKind::Swap:
        // A SWAP costs 3 in every gate set (see native_count.h);
        // routing emits tens of thousands, so skip the 4x4 build.
        return 3;
      default:
        break;
    }
    return nativeCount(op.unitary4(), gs);
}

int
nativeTwoQubitCount(const qcir::Circuit &c, GateSet gs)
{
    int total = 0;
    for (const auto &op : c.ops())
        if (op.isTwoQubit())
            total += nativeCountOp(op, gs);
    return total;
}

} // namespace decomp
} // namespace tqan
