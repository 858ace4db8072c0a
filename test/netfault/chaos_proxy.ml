(* chaos_proxy — Netfault's proxy as a standalone process, so a shell
   script can put a seeded network fault between a real client and a
   real daemon:

     chaos_proxy.exe CLASS[:SEED] LISTEN UPSTREAM

   LISTEN and UPSTREAM are each a Unix socket path or HOST:PORT; both
   transports speak NF1 frames, so they need not match. One connection
   in three gets the CLASS fault (see netfault.mli for the classes).
   SIGTERM or SIGINT stops the proxy, which then exits 0. *)

module Client = Nascent_support.Server.Client
module Netfault = Nascent_netfault.Netfault

let sockaddr s =
  match Client.parse_address s with
  | Client.Uds p -> Unix.ADDR_UNIX p
  | Client.Tcp (host, port) ->
      Unix.ADDR_INET (Nascent_support.Server.resolve_host host, port)

let () =
  match Sys.argv with
  | [| _; spec; listen; upstream |] -> (
      match Netfault.parse spec with
      | Error e ->
          Printf.eprintf "chaos_proxy: %s\n%!" e;
          exit 2
      | Ok spec ->
          let stopping = ref false in
          let on_signal _ = stopping := true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          Printf.eprintf "chaos_proxy: %s proxying %s -> %s\n%!"
            (Netfault.to_string spec) listen upstream;
          Netfault.proxy ~listen:(sockaddr listen) ~upstream:(sockaddr upstream)
            ~stop:(fun () -> !stopping)
            spec;
          Printf.eprintf "chaos_proxy: stopped\n%!")
  | _ ->
      prerr_endline "usage: chaos_proxy CLASS[:SEED] LISTEN UPSTREAM";
      exit 2
