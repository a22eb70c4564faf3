# Simulated-time exactness gate: runs `fig2a_redo_time --smoke` and
# byte-compares its stdout against a committed golden file.
#
#   cmake -DBIN=<fig2a_redo_time> -DGOLDEN=<golden.txt> [-DACTUAL=<out.txt>]
#         [-DUPDATE=ON] -P fig2a_golden.cmake
#
# The "parallel recovery end to end" block runs 8 recovery threads, and
# its per-method rows vary from run to run, so those rows are masked
# before the compare. The block's header, footnote and verification line
# are still compared, as is every other table. UPDATE=ON rewrites the
# golden file from this run instead of comparing (only when a change is
# meant to move simulated time).
execute_process(COMMAND "${BIN}" --smoke
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --smoke exited with ${rc}")
endif()
string(REGEX REPLACE
  "(--- parallel recovery end to end[^\n]*\n[^\n]*\n)([LS][^\n]*\n)+"
  "\\1<per-method rows masked: 8-thread run, varies run to run>\n"
  out "${out}")

if(UPDATE)
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  if(ACTUAL)
    file(WRITE "${ACTUAL}" "${out}")
    message(FATAL_ERROR "fig2a --smoke output differs from ${GOLDEN}; "
                        "this run is in ${ACTUAL} (diff the two)")
  endif()
  message(FATAL_ERROR "fig2a --smoke output differs from ${GOLDEN}:\n${out}")
endif()
