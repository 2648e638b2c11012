#pragma once

// RDMASEM_ASAN is 1 when AddressSanitizer instruments this translation
// unit and 0 otherwise. GCC announces ASan with __SANITIZE_ADDRESS__,
// Clang through __has_feature. Code that recycles or maps memory itself
// (FramePool, PayloadPool, verbs::Buffer) takes the plain heap path under
// ASan, so the sanitizer's redzones and poisoning cover every lifetime.
#if defined(__SANITIZE_ADDRESS__)
#define RDMASEM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RDMASEM_ASAN 1
#endif
#endif
#ifndef RDMASEM_ASAN
#define RDMASEM_ASAN 0
#endif
