package lib

//authlint:file-ignore deadexport fixtures that another package's tests import

// FileWaived has no reference; the file-ignore keeps it.
func FileWaived() {}
