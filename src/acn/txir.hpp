// Transaction intermediate representation (IR).
//
// The paper's Static Module runs Soot over Java bytecode to recover, per
// transaction, (a) which statements perform remote object accesses and
// (b) the data dependencies between statements.  This reproduction replaces
// bytecode analysis with an explicit IR: workloads build a TxProgram once,
// declaring every remote access and local computation together with the
// variables it consumes and produces.  That is precisely the information the
// paper's UnitGraph carries, so the downstream analyses (UnitBlock
// formation, dependency model, Algorithm Module) are implemented faithfully
// on top of it.
//
// A program is a straight-line list of operations over numbered variables:
//   * params  — vars [0, n_params) are provided per execution (ids, amounts);
//   * kRemote — computes an ObjectKey from vars, fetches the object through
//     the transactional runtime, binds the key and stores the value in `out`;
//   * kLocal  — arbitrary local computation over vars; may buffer
//     transactional writes through TxEnv::write_object / insert_object.
// The executor is free to run operations in any order consistent with the
// declared dependencies — that freedom is what ACN exploits.
//
// A TxEnv runs a program over a nesting::TxAccess: the closed-nesting
// Transaction on one quorum group, a cross-shard ShardTx, or the epoch
// lane's speculative workspace.  Workload authors never write per-runtime
// code.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/nesting/context.hpp"

namespace acn::ir {

using store::ClassId;
using store::Field;
using store::ObjectKey;
using store::Record;

using VarId = std::uint32_t;
constexpr VarId kNoVar = static_cast<VarId>(-1);

class TxEnv;

/// Observation hook for variable accesses (used by the program auditor to
/// verify ops touch only their declared vars; null in production).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void on_get(VarId v) = 0;
  virtual void on_set(VarId v) = 0;
};

struct RemoteAccessOp {
  ClassId cls = 0;
  std::function<ObjectKey(const TxEnv&)> key_fn;
  VarId out = kNoVar;
  std::vector<VarId> key_deps;
  bool for_write = false;
};

struct LocalOp {
  std::function<void(TxEnv&)> fn;
  std::vector<VarId> reads;
  std::vector<VarId> writes;
};

struct Op {
  enum class Kind : std::uint8_t { kRemote, kLocal };

  Kind kind = Kind::kLocal;
  RemoteAccessOp remote;
  LocalOp local;
  std::string label;

  bool is_remote() const noexcept { return kind == Kind::kRemote; }

  /// Variables this op consumes / produces (uniform view over both kinds).
  std::vector<VarId> reads() const;
  std::vector<VarId> writes() const;
};

struct TxProgram {
  std::string name;
  std::size_t n_params = 0;
  std::size_t n_vars = 0;
  std::vector<Op> ops;

  std::size_t remote_op_count() const;
};

/// Execution state of one transaction attempt: variable slots plus the
/// object-key bindings of remote-access outputs.  Snapshots support
/// closed-nesting partial rollback (a re-executed Block must observe the
/// variable state from before its first attempt).
class TxEnv {
 public:
  /// Remote reads and object writes go through `access`.
  TxEnv(nesting::TxAccess& access, const TxProgram& program,
        std::vector<Record> params);

  /// Evaluation-only environment with no transaction behind it: params are
  /// bound, remote outputs stay unset.  Used to evaluate key functions
  /// before execution (footprint prediction); calling run_remote,
  /// write_object or insert_object on such an env is a logic error.
  TxEnv(const TxProgram& program, std::vector<Record> params);

  const Record& get(VarId v) const;
  Field geti(VarId v, std::size_t field = 0) const;
  void set(VarId v, Record value);
  void seti(VarId v, Field value);
  bool is_set(VarId v) const noexcept;

  /// Executes a remote access op: resolves the key, performs the
  /// transactional read, binds key and value to `op.out`.
  void run_remote(const RemoteAccessOp& op);

  /// Executes `op`: run_remote for an access, the function for a local op.
  void execute(const Op& op) {
    if (op.is_remote())
      run_remote(op.remote);
    else
      op.local.fn(*this);
  }

  /// Install (or clear, with nullptr) the access observer.
  void set_observer(AccessObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Buffer a transactional write of `value` to the object bound to
  /// `objvar` and update the variable.
  void write_object(VarId objvar, Record value);

  /// Blind transactional insert of a fresh object.
  void insert_object(const ObjectKey& key, Record value);

  const ObjectKey& key_of(VarId objvar) const;

  struct Snapshot {
    std::vector<std::optional<Record>> vars;
    std::vector<std::optional<ObjectKey>> keys;
  };
  Snapshot snapshot() const { return {vars_, keys_}; }
  void restore(Snapshot snapshot) {
    vars_ = std::move(snapshot.vars);
    keys_ = std::move(snapshot.keys);
  }

 private:
  nesting::TxAccess& access() const;

  nesting::TxAccess* access_ = nullptr;
  std::vector<std::optional<Record>> vars_;
  std::vector<std::optional<ObjectKey>> keys_;
  AccessObserver* observer_ = nullptr;
};

/// Fluent construction of TxPrograms.
///
///   ProgramBuilder b("transfer", /*n_params=*/3);
///   auto acc = b.remote_read(kAccount, {b.param(0)},
///                            [](const TxEnv& e) { return account_key(e.geti(0)); },
///                            "read account1");
///   b.local({acc, b.param(2)}, {acc},
///           [=](TxEnv& e) { ... e.write_object(acc, updated); }, "withdraw");
///   TxProgram p = b.build();
class ProgramBuilder {
 public:
  ProgramBuilder(std::string name, std::size_t n_params);

  VarId param(std::size_t i) const;
  VarId fresh_var();

  VarId remote_read(ClassId cls, std::vector<VarId> key_deps,
                    std::function<ObjectKey(const TxEnv&)> key_fn,
                    std::string label, bool for_write = false);

  void local(std::vector<VarId> reads, std::vector<VarId> writes,
             std::function<void(TxEnv&)> fn, std::string label);

  TxProgram build();

 private:
  TxProgram program_;
  bool built_ = false;
};

}  // namespace acn::ir
