(* fsck.rfs: check an rfs image for consistency.  Exit status 0 = clean
   (warnings allowed), 1 = structural errors, 2 = unreadable. *)

open Cmdliner

let run image verbose =
  match Rae_block.Disk.load image with
  | Error msg ->
      Printf.eprintf "cannot read %s: %s\n" image msg;
      exit 2
  | Ok disk ->
      let dev = Rae_block.Device.of_disk disk in
      let report = Rae_fsck.Fsck.check_device dev in
      if verbose || report.Rae_fsck.Fsck.findings <> [] then
        Format.printf "%a@." Rae_fsck.Fsck.pp_report report
      else
        Printf.printf "%s: clean (%d inodes, %d directories, %d blocks referenced)\n" image
          report.Rae_fsck.Fsck.inodes_checked report.Rae_fsck.Fsck.dirs_walked
          report.Rae_fsck.Fsck.blocks_referenced;
      exit (if Rae_fsck.Fsck.clean report then 0 else 1)

let image = Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"Image file to check.")
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full report even when clean.")

let cmd =
  Cmd.v (Cmd.info "rae_fsck" ~doc:"Check an rfs image") Term.(const run $ image $ verbose)

let () = exit (Cmd.eval cmd)
