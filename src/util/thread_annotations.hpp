// Clang thread-safety (capability) annotation shim.
//
// Library types such as the metrics registry and the tracer may be shared
// across threads by their callers (several simulators in one process, or a
// reader thread beside a running simulator), so their shared state is
// annotated with the lock that guards it. These macros attach Clang's
// capability analysis to that state so lock discipline is a compile error under `-Wthread-safety -Werror` (the CI lint job builds
// the tree with clang++ exactly for this; see DESIGN.md §4d).
//
// Off Clang (GCC builds, which have no analysis) every macro expands to
// nothing, so the annotations are zero-cost documentation that the next
// toolchain run re-verifies.
//
// Usage sketch (the obs::Mutex wrapper carries the capability; see
// obs/sync.hpp):
//
//   class Registry {
//     mutable obs::Mutex mu_;
//     Snapshot cells_ LO_GUARDED_BY(mu_);
//     Cell& cell_locked(...) LO_REQUIRES(mu_);   // caller must hold mu_
//   };
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LO_THREAD_ANNOTATION
#define LO_THREAD_ANNOTATION(x)  // no-op: analysis is Clang-only
#endif

// A type that acts as a lock (std::mutex wrappers).
#define LO_CAPABILITY(x) LO_THREAD_ANNOTATION(capability(x))

// An RAII type that acquires on construction / releases on destruction.
#define LO_SCOPED_CAPABILITY LO_THREAD_ANNOTATION(scoped_lockable)

// Data members: reads and writes require holding the named capability.
#define LO_GUARDED_BY(x) LO_THREAD_ANNOTATION(guarded_by(x))
// Pointer members: dereferenced data (not the pointer itself) is guarded.
#define LO_PT_GUARDED_BY(x) LO_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: the caller must hold / must NOT hold the capability.
#define LO_REQUIRES(...) LO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define LO_REQUIRES_SHARED(...) \
  LO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define LO_EXCLUDES(...) LO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that acquire / release the capability themselves.
#define LO_ACQUIRE(...) LO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LO_ACQUIRE_SHARED(...) \
  LO_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define LO_RELEASE(...) LO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define LO_RELEASE_SHARED(...) \
  LO_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define LO_TRY_ACQUIRE(...) \
  LO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))


// Escape hatch for functions the analysis cannot model (e.g. handing out a
// stable cell address for single-writer hot paths). Every use carries a
// comment explaining the ownership rule that replaces the static check.
#define LO_NO_THREAD_SAFETY_ANALYSIS \
  LO_THREAD_ANNOTATION(no_thread_safety_analysis)
