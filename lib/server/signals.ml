let on_termination f =
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> f ()))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ()
