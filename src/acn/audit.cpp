#include "src/acn/audit.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/nesting/transaction.hpp"

namespace acn {
namespace {

class RecordingObserver final : public ir::AccessObserver {
 public:
  void on_get(ir::VarId v) override { reads_.push_back(v); }
  void on_set(ir::VarId v) override { writes_.push_back(v); }

  void reset() {
    reads_.clear();
    writes_.clear();
  }
  const std::vector<ir::VarId>& reads() const { return reads_; }
  const std::vector<ir::VarId>& writes() const { return writes_; }

 private:
  std::vector<ir::VarId> reads_;
  std::vector<ir::VarId> writes_;
};

bool contains(const std::vector<ir::VarId>& list, ir::VarId v) {
  return std::find(list.begin(), list.end(), v) != list.end();
}

}  // namespace

std::string AuditViolation::describe() const {
  std::string out = "op " + std::to_string(op_index);
  if (!op_label.empty()) out += " (" + op_label + ")";
  out += kind == Kind::kUndeclaredRead ? " reads" : " writes";
  out += " undeclared var " + std::to_string(var);
  return out;
}

std::vector<AuditViolation> audit_program(const ir::TxProgram& program,
                                          const std::vector<ir::Record>& params,
                                          dtm::QuorumStub& stub) {
  nesting::Transaction txn(stub, nesting::next_tx_id());
  ir::TxEnv env(txn, program, params);
  RecordingObserver observer;
  env.set_observer(&observer);

  std::vector<AuditViolation> violations;
  auto flag = [&](std::size_t op_index, ir::VarId var,
                  AuditViolation::Kind kind) {
    // Deduplicate repeated accesses within the same op.
    for (const auto& existing : violations)
      if (existing.op_index == op_index && existing.var == var &&
          existing.kind == kind)
        return;
    violations.push_back(
        {op_index, program.ops[op_index].label, var, kind});
  };

  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    const ir::Op& op = program.ops[i];
    observer.reset();
    const std::vector<ir::VarId> declared_reads = op.reads();
    const std::vector<ir::VarId> declared_writes = op.writes();
    env.execute(op);

    for (const ir::VarId v : observer.reads()) {
      const bool is_param = v < program.n_params;
      if (!is_param && !contains(declared_reads, v) &&
          !contains(declared_writes, v))
        flag(i, v, AuditViolation::Kind::kUndeclaredRead);
    }
    for (const ir::VarId v : observer.writes()) {
      if (!contains(declared_writes, v))
        flag(i, v, AuditViolation::Kind::kUndeclaredWrite);
    }
  }
  // Deliberately no commit: the audit leaves no trace in the cluster.
  return violations;
}

void expect_clean_audit(const ir::TxProgram& program,
                        const std::vector<ir::Record>& params,
                        dtm::QuorumStub& stub) {
  const auto violations = audit_program(program, params, stub);
  if (violations.empty()) return;
  std::string what = "program '" + program.name + "' failed its audit:";
  for (const auto& violation : violations)
    what += "\n  " + violation.describe();
  throw std::logic_error(what);
}

}  // namespace acn
