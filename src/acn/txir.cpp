#include "src/acn/txir.hpp"

#include <stdexcept>

namespace acn::ir {

std::vector<VarId> Op::reads() const {
  return kind == Kind::kRemote ? remote.key_deps : local.reads;
}

std::vector<VarId> Op::writes() const {
  if (kind == Kind::kRemote) return {remote.out};
  return local.writes;
}

std::size_t TxProgram::remote_op_count() const {
  std::size_t n = 0;
  for (const auto& op : ops)
    if (op.is_remote()) ++n;
  return n;
}

TxEnv::TxEnv(nesting::TxAccess& access, const TxProgram& program,
             std::vector<Record> params)
    : TxEnv(program, std::move(params)) {
  access_ = &access;
}

TxEnv::TxEnv(const TxProgram& program, std::vector<Record> params)
    : vars_(program.n_vars), keys_(program.n_vars) {
  if (params.size() != program.n_params)
    throw std::invalid_argument("TxEnv: wrong number of params for " +
                                program.name);
  for (std::size_t i = 0; i < params.size(); ++i) vars_[i] = std::move(params[i]);
}

nesting::TxAccess& TxEnv::access() const {
  if (access_ == nullptr)
    throw std::logic_error("TxEnv: transactional access on an evaluation-only env");
  return *access_;
}

const Record& TxEnv::get(VarId v) const {
  if (observer_) observer_->on_get(v);
  const auto& slot = vars_.at(v);
  if (!slot)
    throw std::logic_error("TxEnv::get of unset var " + std::to_string(v));
  return *slot;
}

Field TxEnv::geti(VarId v, std::size_t field) const { return get(v)[field]; }

void TxEnv::set(VarId v, Record value) {
  if (observer_) observer_->on_set(v);
  vars_.at(v) = std::move(value);
}

void TxEnv::seti(VarId v, Field value) {
  if (observer_) observer_->on_set(v);
  vars_.at(v) = Record{value};
}

bool TxEnv::is_set(VarId v) const noexcept {
  return v < vars_.size() && vars_[v].has_value();
}

void TxEnv::run_remote(const RemoteAccessOp& op) {
  const ObjectKey key = op.key_fn(*this);
  vars_.at(op.out) = access().read(key);
  keys_.at(op.out) = key;
}

void TxEnv::write_object(VarId objvar, Record value) {
  if (observer_) {
    observer_->on_get(objvar);  // depends on the access that bound the key
    observer_->on_set(objvar);
  }
  const auto& key = keys_.at(objvar);
  if (!key)
    throw std::logic_error("TxEnv::write_object: var " + std::to_string(objvar) +
                           " is not bound to an object");
  access().write(*key, value);
  vars_.at(objvar) = std::move(value);
}

void TxEnv::insert_object(const ObjectKey& key, Record value) {
  access().insert(key, std::move(value));
}

const ObjectKey& TxEnv::key_of(VarId objvar) const {
  const auto& key = keys_.at(objvar);
  if (!key)
    throw std::logic_error("TxEnv::key_of: var " + std::to_string(objvar) +
                           " is not bound to an object");
  return *key;
}

ProgramBuilder::ProgramBuilder(std::string name, std::size_t n_params) {
  program_.name = std::move(name);
  program_.n_params = n_params;
  program_.n_vars = n_params;
}

VarId ProgramBuilder::param(std::size_t i) const {
  if (i >= program_.n_params)
    throw std::out_of_range("ProgramBuilder::param out of range");
  return static_cast<VarId>(i);
}

VarId ProgramBuilder::fresh_var() {
  return static_cast<VarId>(program_.n_vars++);
}

VarId ProgramBuilder::remote_read(ClassId cls, std::vector<VarId> key_deps,
                                  std::function<ObjectKey(const TxEnv&)> key_fn,
                                  std::string label, bool for_write) {
  const VarId out = fresh_var();
  Op op;
  op.kind = Op::Kind::kRemote;
  op.remote = {cls, std::move(key_fn), out, std::move(key_deps), for_write};
  op.label = std::move(label);
  program_.ops.push_back(std::move(op));
  return out;
}

void ProgramBuilder::local(std::vector<VarId> reads, std::vector<VarId> writes,
                           std::function<void(TxEnv&)> fn, std::string label) {
  Op op;
  op.kind = Op::Kind::kLocal;
  op.local = {std::move(fn), std::move(reads), std::move(writes)};
  op.label = std::move(label);
  program_.ops.push_back(std::move(op));
}

TxProgram ProgramBuilder::build() {
  if (built_) throw std::logic_error("ProgramBuilder::build called twice");
  built_ = true;
  return std::move(program_);
}

}  // namespace acn::ir
