# One CLI golden case: run `mphls ARGS` from the repository root and
# compare its stdout, stderr and exit status byte for byte against
# tests/fixtures/cli/expected/NAME.{out,err,rc}. A missing .err file means
# stderr must be empty.
#
#   cmake -DMPHLS=path/to/mphls -DROOT=repo -DNAME=case -DARGS="a;b" \
#         -P tests/cli_golden.cmake
#
# With -DUPDATE=1 the expected files are (re)written instead; see
# tests/fixtures/cli/README.md.
set(exp "${ROOT}/tests/fixtures/cli/expected/${NAME}")
execute_process(
  COMMAND "${MPHLS}" ${ARGS}
  WORKING_DIRECTORY "${ROOT}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(UPDATE)
  file(WRITE "${exp}.out" "${out}")
  file(WRITE "${exp}.rc" "${rc}\n")
  if(err STREQUAL "")
    file(REMOVE "${exp}.err")
  else()
    file(WRITE "${exp}.err" "${err}")
  endif()
  return()
endif()

file(READ "${exp}.out" want_out)
file(READ "${exp}.rc" want_rc)
string(STRIP "${want_rc}" want_rc)
set(want_err "")
if(EXISTS "${exp}.err")
  file(READ "${exp}.err" want_err)
endif()

set(failed FALSE)
if(NOT rc STREQUAL want_rc)
  message(SEND_ERROR "exit status ${rc}, expected ${want_rc}")
  set(failed TRUE)
endif()
if(NOT out STREQUAL want_out)
  message(SEND_ERROR "stdout differs from ${exp}.out:\n${out}")
  set(failed TRUE)
endif()
if(NOT err STREQUAL want_err)
  message(SEND_ERROR "stderr differs from expected:\n${err}")
  set(failed TRUE)
endif()
if(failed)
  message(FATAL_ERROR "cli golden '${NAME}' failed: mphls ${ARGS}")
endif()
