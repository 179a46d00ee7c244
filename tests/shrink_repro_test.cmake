# Shrinks a diverging repro file with `fuzz_differential --shrink`, then
# checks the result: `--replay` must still report the divergence, and
# `--dump` must show no more queries and no more clean events than the
# input. Run as
#   cmake -DFUZZ=<fuzz_differential> -DINPUT=<file.repro> -DOUT_DIR=<dir>
#         -P shrink_repro_test.cmake

function(run_fuzz out_var)
  execute_process(COMMAND ${FUZZ} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fuzz_differential ${ARGN} exited ${code}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Sets <prefix>_queries and <prefix>_events from the --dump of `repro`.
function(case_shape repro prefix)
  run_fuzz(dump --replay ${repro} --dump)
  string(REGEX MATCH "== model ==\n(.*)\n== grouped model" model "${dump}")
  string(REGEX MATCHALL "(^|\n)QUERY " queries "${CMAKE_MATCH_1}")
  list(LENGTH queries num_queries)
  if(NOT dump MATCHES "== kept clean events \\(([0-9]+)\\) ==")
    message(FATAL_ERROR "no event count in the --dump of ${repro}:\n${dump}")
  endif()
  if(num_queries EQUAL 0)
    message(FATAL_ERROR "no queries in the --dump of ${repro}:\n${dump}")
  endif()
  set(${prefix}_queries ${num_queries} PARENT_SCOPE)
  set(${prefix}_events ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

# Shrinks `input`, replays the result and compares sizes. With `strict`
# the result must also have fewer events than the input.
function(shrink_and_check input strict)
  run_fuzz(shrink_out --shrink ${input} --write-repro ${OUT_DIR})
  message(STATUS "${shrink_out}")
  get_filename_component(stem ${input} NAME_WE)
  set(shrunk ${OUT_DIR}/${stem}.min.repro)
  if(NOT EXISTS ${shrunk})
    message(FATAL_ERROR "--shrink wrote no ${shrunk}")
  endif()

  run_fuzz(replay_out --replay ${shrunk})
  if(NOT replay_out MATCHES "divergence on leg")
    message(FATAL_ERROR "shrunk repro does not diverge:\n${replay_out}")
  endif()

  case_shape(${input} in)
  case_shape(${shrunk} out)
  message(STATUS "${stem}: queries ${in_queries} -> ${out_queries}, "
                 "events ${in_events} -> ${out_events}")
  if(out_queries GREATER in_queries OR out_events GREATER in_events)
    message(FATAL_ERROR "the shrunk repro is larger than its input")
  endif()
  if(strict AND NOT out_events LESS in_events)
    message(FATAL_ERROR "the shrink removed no event")
  endif()
endfunction()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
# The corpus case as checked in (already minimal)...
shrink_and_check(${INPUT} FALSE)
# ...and with its query and event masks dropped, so the whole generated
# case has to be shrunk again.
file(READ ${INPUT} text)
string(REGEX REPLACE "(^|\n)(queries|events) = [^\n]*" "" unmasked "${text}")
file(WRITE ${OUT_DIR}/unmasked.repro "${unmasked}")
shrink_and_check(${OUT_DIR}/unmasked.repro TRUE)
