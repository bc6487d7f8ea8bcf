# Symbol hygiene of the kernel tier objects (src/tensor/kernel_tier.cpp).
#
#   cmake -DNM=<nm> -P tier_symbols.cmake <namespace> <object> [...]
#
# Each tier object is compiled for its own -march. If it defined a weak,
# COMDAT or unique symbol (an inline function or variable, a template
# instance), the linker could pick that copy for callers in the baseline
# code, and an AVX-512 copy would fault on an older CPU. So every symbol a
# tier defines must be local, or global and inside the tier's namespace
# stellaris::ops::detail::<namespace>; and the tier must define its
# kernels() entry point there.
cmake_minimum_required(VERSION 3.22)

set(args)
set(seen_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_script)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "tier_symbols\\.cmake$")
    set(seen_script TRUE)
  endif()
endforeach()
list(LENGTH args nargs)
if(nargs EQUAL 0)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -P tier_symbols.cmake <namespace> <object> ...")
endif()

set(failures 0)
while(args)
  list(POP_FRONT args ns obj)
  execute_process(COMMAND "${NM}" -P --defined-only "${obj}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(LENGTH "${ns}" ns_len)
  set(prefix "_ZN9stellaris3ops6detail${ns_len}${ns}")
  set(entry FALSE)
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    # POSIX format: "<name> <type> [<value> <size>]".
    if(NOT line MATCHES "^([^ ]+) ([A-Za-z])")
      continue()
    endif()
    set(name "${CMAKE_MATCH_1}")
    set(type "${CMAKE_MATCH_2}")
    if(type MATCHES "^[WVwvu]$")
      message(SEND_ERROR "${ns}: weak/COMDAT/unique symbol ${type} ${name}")
      math(EXPR failures "${failures} + 1")
    elseif(type MATCHES "^[A-Z]$")
      string(FIND "${name}" "${prefix}" at)
      if(NOT at EQUAL 0)
        message(SEND_ERROR "${ns}: global symbol outside the tier namespace: ${type} ${name}")
        math(EXPR failures "${failures} + 1")
      elseif(type STREQUAL "T" AND name STREQUAL "${prefix}7kernelsEv")
        set(entry TRUE)
      endif()
    endif()
  endforeach()
  if(NOT entry)
    message(SEND_ERROR "${ns}: ${obj} does not define ${ns}::kernels()")
    math(EXPR failures "${failures} + 1")
  endif()
  message(STATUS "${ns}: ${obj} checked")
endwhile()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} tier symbol problem(s)")
endif()
