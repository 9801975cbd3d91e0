// Program auditor: runtime verification of declared dependencies.
//
// The Static Module's entire analysis — UnitBlock attachment, dependency
// edges, the freedom to merge and reorder Blocks — is only as sound as the
// reads/writes each operation *declares*.  An op whose lambda touches an
// undeclared variable can silently break reordering correctness: the
// Algorithm Module may schedule its producer after it.
//
// audit_program() executes a program once in source order against a
// transactional context, with an AccessObserver installed on the TxEnv,
// and reports every access outside the op's declaration:
//   * a local op get() of a var it did not declare in `reads`
//     (undeclared *param* reads are tolerated — params are bound before
//     any op runs, so they impose no ordering constraint);
//   * a local op set()/write_object() of a var not in `writes`;
//   * a remote op's key_fn reading a var outside its `key_deps`.
// The run never commits: all effects stay in the transaction's private
// buffers.
#pragma once

#include <string>
#include <vector>

#include "src/acn/txir.hpp"
#include "src/dtm/quorum_stub.hpp"

namespace acn {

struct AuditViolation {
  std::size_t op_index = 0;
  std::string op_label;
  ir::VarId var = ir::kNoVar;
  enum class Kind { kUndeclaredRead, kUndeclaredWrite } kind =
      Kind::kUndeclaredRead;

  std::string describe() const;
};

/// Executes `program` once (without committing) and returns every
/// declaration violation observed.  `stub` must point at a cluster seeded
/// with whatever objects the given params make the program touch.
std::vector<AuditViolation> audit_program(const ir::TxProgram& program,
                                          const std::vector<ir::Record>& params,
                                          dtm::QuorumStub& stub);

/// Convenience assertion: audit and throw std::logic_error listing every
/// violation if any were found.
void expect_clean_audit(const ir::TxProgram& program,
                        const std::vector<ir::Record>& params,
                        dtm::QuorumStub& stub);

}  // namespace acn
