// Clang thread-safety annotation shim (the standard GUARDED_BY/REQUIRES
// macro set).
//
// Under Clang the library is compiled with -Wthread-safety
// -Werror=thread-safety (see CMakeLists.txt), so the annotations are a
// compile-time proof obligation: a mutation of a GUARDED_BY member outside
// its capability, or a call to a REQUIRES function without it, is a build
// error. Under GCC (which has no thread-safety analysis) every macro expands
// to nothing and the annotated code compiles unchanged.
//
// Conventions in this codebase (README "Static analysis"):
//  - Real mutexes: the mutex member is declared last among the fields it
//    guards; every guarded field carries GUARDED_BY(mu_). Raw std::mutex
//    declarations without annotations are rejected by scripts/bundler_lint.py
//    (rule raw-mutex).
//  - Thread-compatible simulation state (Tracer, CounterRegistry, EventQueue,
//    FlowTable, every network component): owned by exactly one Simulator,
//    which is owned by exactly one trial and driven by the one TrialRunner
//    worker that runs it. These are deliberately NOT annotated: their
//    single-threadedness is a property of the TrialRunner's ownership
//    structure, not of a lock.
#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

#define CAPABILITY(x) BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

#define SCOPED_CAPABILITY BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

#define GUARDED_BY(x) BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

#define PT_GUARDED_BY(x) BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

#define RETURN_CAPABILITY(x) BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  BUNDLER_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
