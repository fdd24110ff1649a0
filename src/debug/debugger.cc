#include "debug/debugger.hh"

#include "common/logging.hh"
#include "debug/hwreg_backend.hh"
#include "debug/rewrite_backend.hh"
#include "debug/singlestep_backend.hh"
#include "debug/vm_backend.hh"

namespace dise {

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Dise: return "DISE";
      case BackendKind::SingleStep: return "Single-Stepping";
      case BackendKind::VirtualMemory: return "Virtual Memory";
      case BackendKind::HardwareReg: return "Hardware";
      case BackendKind::Rewrite: return "Binary Rewriting";
    }
    return "?";
}

Debugger::Debugger(DebugTarget &target, DebuggerOptions opts)
    : target_(target), opts_(opts)
{
    switch (opts_.backend) {
      case BackendKind::Dise:
        backend_ = std::make_unique<DiseBackend>(opts_.dise);
        break;
      case BackendKind::SingleStep:
        backend_ = std::make_unique<SingleStepBackend>();
        break;
      case BackendKind::VirtualMemory:
        backend_ = std::make_unique<VmBackend>();
        break;
      case BackendKind::HardwareReg:
        backend_ = std::make_unique<HwRegBackend>(opts_.hwRegs);
        break;
      case BackendKind::Rewrite:
        backend_ = std::make_unique<RewriteBackend>();
        break;
    }
}

Debugger::~Debugger() = default;

int
Debugger::watch(const WatchSpec &spec)
{
    DISE_ASSERT(!attached_, "watchpoints must be set before attach()");
    watches_.push_back(spec);
    return static_cast<int>(watches_.size()) - 1;
}

int
Debugger::breakAt(const BreakSpec &spec)
{
    DISE_ASSERT(!attached_, "breakpoints must be set before attach()");
    breaks_.push_back(spec);
    return static_cast<int>(breaks_.size()) - 1;
}

bool
Debugger::attach(const std::function<void(DebugTarget &)> &postLoad)
{
    DISE_ASSERT(!attached_, "already attached");
    if (!backend_->install(target_, watches_, breaks_))
        return false;
    target_.load();
    if (postLoad)
        postLoad(target_);
    backend_->prime(target_);
    attached_ = true;
    return true;
}

RunStats
Debugger::run(TimingConfig cfg, RunLimits limits)
{
    DISE_ASSERT(attached_, "attach() before run()");
    StreamEnv env = backend_->streamEnv(target_);
    TimingCpu cpu(target_.arch, target_.mem, &target_.engine, env, cfg);
    return cpu.run(limits);
}

FuncResult
Debugger::runFunctional(uint64_t maxAppInsts)
{
    DISE_ASSERT(attached_, "attach() before run()");
    StreamEnv env = backend_->streamEnv(target_);
    FuncCpu cpu(target_.arch, target_.mem, &target_.engine, env);
    return cpu.run(maxAppInsts);
}

} // namespace dise
