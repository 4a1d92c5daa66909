// The solver's hot-path headers carry no obs dependency: spans and counters
// are recorded in .cpp files only, so instrumenting a kernel never
// recompiles every includer of its header.  This is a build-time check;
// the test binary fails to compile if it breaks.

// Hot headers first, before any obs include: if one of them dragged the
// obs layer in, the marker below would already be defined.
#include "core/transient_solver.h"
#include "linalg/lu.h"
#include "network/state_space.h"
#include "parallel/once_cell.h"
#include "parallel/thread_pool.h"

#ifdef FINWORK_OBS_INCLUDED
#error "a hot-path header includes the obs layer; keep obs out of headers"
#endif

// Each obs header sets the marker, so the check above cannot go blind.
#include "obs/counters.h"
#ifndef FINWORK_OBS_INCLUDED
#error "obs/counters.h must define FINWORK_OBS_INCLUDED"
#endif
#undef FINWORK_OBS_INCLUDED
#include "obs/trace.h"
#ifndef FINWORK_OBS_INCLUDED
#error "obs/trace.h must define FINWORK_OBS_INCLUDED"
#endif
#undef FINWORK_OBS_INCLUDED
#include "obs/sink.h"
#ifndef FINWORK_OBS_INCLUDED
#error "obs/sink.h must define FINWORK_OBS_INCLUDED"
#endif
#undef FINWORK_OBS_INCLUDED
#include "obs/perf_record.h"
#ifndef FINWORK_OBS_INCLUDED
#error "obs/perf_record.h must define FINWORK_OBS_INCLUDED"
#endif
